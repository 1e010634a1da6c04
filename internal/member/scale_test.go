package member

import (
	"math"
	"runtime"
	"testing"

	"heterodc/internal/fault"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/topo"
)

// The idle fleet's scenario: n nodes on a 16-node-rack fat tree, SWIM at
// 1 ms, node 1 crashed for good at round 40 of 80.
const (
	idlePeriod = 1e-3
	idleRounds = 80
)

// idleFleet builds the idle fleet's scenario over n nodes, on the parallel
// engine when par is set and the sequential one otherwise.
func idleFleet(t testing.TB, n int, par bool) (*kernel.Cluster, *Service) {
	t.Helper()
	arches := make([]isa.Arch, n)
	for i := range arches {
		arches[i] = isa.Arches[i%len(isa.Arches)]
	}
	cl, _, err := kernel.NewClusterTopo(arches, kernel.DefaultInterconnect(),
		topo.Spec{Kind: topo.KindFatTree, Racks: n / 16, Oversub: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par {
		cl.UseParallelEngine(0)
	}
	cl.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Node: 1, At: idleRounds / 2 * idlePeriod}}})
	s, err := Attach(cl, Config{HeartbeatPeriod: idlePeriod, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return cl, s
}

// idleFleetRounds runs the idle fleet's scenario over n nodes and returns
// the cluster, the service, and the SWIM frames the fleet sent in each
// round.
func idleFleetRounds(t *testing.T, n int) (*kernel.Cluster, *Service, []uint64) {
	t.Helper()
	cl, s := idleFleet(t, n, false)
	sent := make([]uint64, idleRounds)
	for r := range sent {
		before := s.Stats().HeartbeatsSent
		cl.Run(float64(r+1) * idlePeriod)
		sent[r] = s.Stats().HeartbeatsSent - before
	}
	return cl, s, sent
}

// TestFramesPerObserverRoundStayFlat: SWIM's per-node traffic is O(1) per
// round at any fleet size, in the rounds after a death too — suspicion,
// confirmation and the verdict ride the probe and ack frames the fleet
// sends anyway. Each size's busiest round after the crash stays within
// 1.5x of the smallest fleet's.
func TestFramesPerObserverRoundStayFlat(t *testing.T) {
	var base float64
	for _, n := range []int{64, 256, 1024} {
		_, s, sent := idleFleetRounds(t, n)
		quiet, busiest := 0.0, 0.0
		for r, c := range sent {
			perNode := float64(c) / float64(n)
			if r < len(sent)/2 {
				quiet = max(quiet, perNode)
			} else {
				busiest = max(busiest, perNode)
			}
		}
		if d := s.Deaths(); len(d) != 1 || d[0].Node != 1 {
			t.Fatalf("n=%d: deaths %+v, want node 1's", n, d)
		}
		t.Logf("n=%d: busiest quiet round %.2f frames per node, busiest after the crash %.2f", n, quiet, busiest)
		if base == 0 {
			base = busiest
		}
		if busiest > 1.5*base {
			t.Errorf("n=%d: %.2f frames per node in the busiest round after the crash, %.2f at 64 nodes", n, busiest, base)
		}
	}
}

// rackCrashMaxDetect is two rounds above the membership-scaling study's
// single-crash bound (8 ms, exp.memberScaleMaxDetect): each set gathers
// only after its own deadline, the rack's last-probed node is first
// suspected about two rounds after the first, and its set takes about
// three rounds to reach a majority — the last death lands at 9.2 ms.
const rackCrashMaxDetect = 10e-3

// TestRackCrashIsDetectedWhole crashes one 16-node rack of a 256-node fat
// tree at once under 1% loss: sixteen suspicions gather their confirmation
// sets side by side on the same frames. Every death is detected, by a
// verdict and not a deferral, with no live node declared dead; and each
// within rackCrashMaxDetect of the crash.
func TestRackCrashIsDetectedWhole(t *testing.T) {
	const n, period, crashAt = 256, 1e-3, 20e-3
	arches := make([]isa.Arch, n)
	for i := range arches {
		arches[i] = isa.Arches[i%len(isa.Arches)]
	}
	cl, _, err := kernel.NewClusterTopo(arches, kernel.DefaultInterconnect(),
		topo.Spec{Kind: topo.KindFatTree, Racks: n / 16, Oversub: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.Plan{Seed: 7, DropProb: 0.01}
	for node := 16; node < 32; node++ {
		plan.Crashes = append(plan.Crashes, fault.Crash{Node: node, At: crashAt})
	}
	cl.InjectFaults(plan)
	s, err := Attach(cl, Config{HeartbeatPeriod: period, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(crashAt + 40*period)
	worst := 0.0
	for _, d := range s.Deaths() {
		if d.Node < 16 || d.Node >= 32 {
			t.Errorf("live node %d declared dead at %+.2f ms", d.Node, (d.At-crashAt)*1e3)
			continue
		}
		worst = max(worst, d.At-crashAt)
	}
	st := s.Stats()
	t.Logf("%d deaths, the last %.2f ms after the crash; %d deferred verdicts", st.Deaths, worst*1e3, st.DeferredVerdicts)
	if st.Deaths != 16 || st.DeferredVerdicts != 0 {
		t.Fatalf("%d deaths and %d deferred verdicts, want 16 and 0", st.Deaths, st.DeferredVerdicts)
	}
	if worst >= rackCrashMaxDetect {
		t.Fatalf("the last death landed %.2f ms after the crash, want under %.0f ms", worst*1e3, rackCrashMaxDetect*1e3)
	}
}

// idleFleetAllocCeiling is about 1.2x the objects one op of the benchmark's
// idle_fleet workload allocates — the 256-node scenario on the sequential
// engine, then on the parallel one: 6.1k, against 18.8k when each
// observer kept its views, RTTs and flaps in maps.
const idleFleetAllocCeiling = 7300

// TestIdleFleetAllocations holds the idle fleet under its ceiling, so that a
// per-observer map, a per-probe or per-union allocation coming back fails.
// It also logs the live heap per node of a 1024-node fleet after its 80
// rounds.
func TestIdleFleetAllocations(t *testing.T) {
	op := func() {
		for _, par := range []bool{false, true} {
			cl, s := idleFleet(t, 256, par)
			cl.Run(idleRounds * idlePeriod)
			if d := s.Deaths(); len(d) != 1 || d[0].Node != 1 {
				t.Fatalf("par=%v: deaths %+v, want node 1's", par, d)
			}
		}
	}
	op()
	var before, after runtime.MemStats
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	t.Logf("the 256-node idle fleet allocates %d objects per op (seq and par)", best)
	if best > idleFleetAllocCeiling {
		t.Errorf("the 256-node idle fleet allocates %d objects per op (seq and par), ceiling %d", best, idleFleetAllocCeiling)
	}

	runtime.GC()
	runtime.ReadMemStats(&before)
	cl, s, _ := idleFleetRounds(t, 1024)
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("1024 nodes after %d rounds: %.2f MB live, %d bytes per node", idleRounds, float64(live)/1e6, live/1024)
	runtime.KeepAlive(cl)
	runtime.KeepAlive(s)
}
