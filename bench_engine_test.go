package heterodc_bench

import (
	"runtime"
	"sync"
	"testing"

	"heterodc/internal/core"
	"heterodc/internal/fault"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/link"
	"heterodc/internal/member"
	"heterodc/internal/topo"
)

// The flagship engine benchmark: the configuration every robustness study
// runs under — SWIM membership, a timer source and an oversubscribed
// fat-tree fabric all attached — with one bouncing compute job per node
// pair so the sharing partition has real parallelism to find. This is the
// config BENCH_engine.json tracks across GOMAXPROCS=1/2/4/8 (run with
// `go test -run=NONE -bench=BenchmarkEngineFlagship -benchmem -cpu 1,2,4,8 .`).

const flagshipBallastSrc = `
long chunk(long base) {
	long s = 0;
	for (long j = 0; j < 100; j++) {
		s += (base + j) % 7;
		s += (base * j) % 3;
	}
	return s;
}
long main(void) {
	long sum = 0;
	for (long i = 0; i < 1500; i++) { sum += chunk(i); }
	print_i64_ln(sum);
	return 0;
}`

var (
	flagshipOnce sync.Once
	flagshipImg  *link.Image
)

func buildFlagshipImage(b testing.TB) *link.Image {
	flagshipOnce.Do(func() {
		flagshipImg, _ = core.Build("flagship", core.Src("flagship.c", flagshipBallastSrc))
	})
	if flagshipImg == nil {
		b.Fatal("flagship ballast build failed")
	}
	return flagshipImg
}

// flagshipRun builds the flagship cluster, runs every job to completion and
// returns the executed quanta plus the final simulated clock.
func flagshipRun(b testing.TB, engine string) (uint64, float64) {
	img := buildFlagshipImage(b)
	const racks, perRack = 4, 4
	n := racks * perRack
	arches := make([]isa.Arch, n)
	for i := range arches {
		if i%2 == 0 {
			arches[i] = isa.X86
		} else {
			arches[i] = isa.ARM64
		}
	}
	cl, _, err := kernel.NewClusterTopo(arches, kernel.DefaultInterconnect(),
		topo.Spec{Kind: topo.KindFatTree, Racks: racks, Oversub: 4})
	if err != nil {
		b.Fatal(err)
	}
	if engine == "par" {
		cl.UseParallelEngine(0)
	}
	if _, err := member.Attach(cl, member.Config{HeartbeatPeriod: 20e-3, Seed: 7}); err != nil {
		b.Fatal(err)
	}
	// One job per node pair; a periodic timer tick bounces every live job to
	// the other node of its pair, so the cross-ISA migration machinery runs
	// while compute still dominates. Footprints stay pairwise, so the
	// partition holds racks*perRack/2 groups whenever no hazard is imminent.
	var procs []*kernel.Process
	base := map[int]int{}
	for nd := 0; nd < n; nd += 2 {
		p, err := cl.Spawn(img, nd)
		if err != nil {
			b.Fatal(err)
		}
		procs = append(procs, p)
		base[p.Pid] = nd
	}
	tick := &benchTicker{period: 2e-3, next: 2e-3, cl: cl, procs: procs, base: base}
	cl.SetTimerSource(tick)

	const horizon = 2.0
	drained := false
	for {
		done := true
		for _, p := range procs {
			if e, _ := p.Exited(); !e {
				done = false
				break
			}
		}
		if done || cl.Time() > horizon {
			break
		}
		if !cl.Step() {
			drained = true
			break
		}
	}
	for _, p := range procs {
		if e, _ := p.Exited(); !e {
			b.Fatalf("%s: job on node %d did not finish by %gs (t=%v drained=%v)",
				engine, base[p.Pid], horizon, cl.Time(), drained)
		}
	}
	return cl.Quanta(), cl.Time()
}

// benchTicker is the flagship's global-state timer source: every period it
// re-requests a pair-local migration for each live job (the open-loop
// rebalance-tick shape), which takes effect at the job's next migration
// point.
type benchTicker struct {
	period, next float64
	cl           *kernel.Cluster
	procs        []*kernel.Process
	base         map[int]int
}

func (t *benchTicker) NextDue() float64 { return t.next }
func (t *benchTicker) Fire(now float64) {
	for t.next <= now {
		t.next += t.period
	}
	bounce := int(now/t.period) % 2
	for _, p := range t.procs {
		if e, _ := p.Exited(); e {
			continue
		}
		_ = t.cl.RequestMigration(p, 0, t.base[p.Pid]+bounce)
	}
}

func BenchmarkEngineFlagship(b *testing.B) {
	for _, engine := range []string{"seq", "par"} {
		b.Run(engine, func(b *testing.B) { reportEngineRun(b, engine, flagshipRun) })
	}
}

// reportEngineRun times run on one engine and reports the rates
// BENCH_engine.json records.
func reportEngineRun(b *testing.B, engine string, run func(testing.TB, string) (uint64, float64)) {
	b.ReportAllocs()
	var quanta uint64
	var simSec float64
	for i := 0; i < b.N; i++ {
		q, s := run(b, engine)
		quanta += q
		simSec += s
	}
	el := b.Elapsed().Seconds()
	if el > 0 {
		b.ReportMetric(float64(quanta)/el, "quanta/s")
		b.ReportMetric(simSec/el, "simsec/s")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// The idle-fleet engine benchmark: the flagship's opposite. 256 nodes in 16
// racks on a 4:1 fat-tree run SWIM at a 1 ms period with no process
// anywhere, and one node crashes for good at half time, so the first half
// is quiet membership (the parallel engine fans out between rounds) and the
// second suspicion, verdict and gossip (it collapses). No guest instruction
// retires: what is measured is the engine finding the next action, the
// horizon and partition at each barrier, RunDue and fabric routing. It is
// the scenario of the benchmark suite's idle_fleet workload.
func idleFleetRun(b testing.TB, engine string) (uint64, float64) {
	const (
		nodes, racks = 256, 16
		period       = 1e-3
		rounds       = 80
		crashNode    = 1
		horizon      = rounds * period
	)
	arches := make([]isa.Arch, nodes)
	for i := range arches {
		if i%2 == 1 {
			arches[i] = isa.ARM64
		}
	}
	cl, _, err := kernel.NewClusterTopo(arches, kernel.DefaultInterconnect(),
		topo.Spec{Kind: topo.KindFatTree, Racks: racks, Oversub: 4})
	if err != nil {
		b.Fatal(err)
	}
	if engine == "par" {
		cl.UseParallelEngine(0)
	}
	cl.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Node: crashNode, At: horizon / 2}}})
	svc, err := member.Attach(cl, member.Config{HeartbeatPeriod: period, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	if t := cl.Run(horizon); t < horizon {
		b.Fatalf("%s: idle fleet drained at t=%v", engine, t)
	}
	if d := svc.Deaths(); len(d) != 1 || d[0].Node != crashNode {
		b.Fatalf("%s: want exactly the crash of node %d detected, got %+v", engine, crashNode, d)
	}
	return cl.Quanta(), cl.Time()
}

func BenchmarkEngineIdleFleet(b *testing.B) {
	for _, engine := range []string{"seq", "par"} {
		b.Run(engine, func(b *testing.B) { reportEngineRun(b, engine, idleFleetRun) })
	}
}
