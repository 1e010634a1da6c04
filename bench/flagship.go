package main

import (
	"fmt"
	"slices"

	"heterodc/internal/core"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/link"
	"heterodc/internal/member"
	"heterodc/internal/msg"
	"heterodc/internal/topo"
)

// ballastSrc is bench_engine_test.go's flagship ballast, restated: that
// file belongs to a test-only package, so it cannot be imported.
const ballastSrc = `
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

func buildBallast() (*link.Image, error) {
	return core.Build("flagship", core.Src("flagship.c", ballastSrc))
}

// pairArches alternates x86 and ARM so nodes 2k and 2k+1 are cross-ISA
// pair partners.
func pairArches(n int) []isa.Arch {
	arches := make([]isa.Arch, n)
	for i := range arches {
		if i%2 == 1 {
			arches[i] = isa.ARM64
		}
	}
	return arches
}

// pairTicker is the flagship's timer source: every period it asks each
// live job to migrate to the other node of its pair.
type pairTicker struct {
	period, next float64
	cl           *kernel.Cluster
	procs        []*kernel.Process
	base         []int
}

func (t *pairTicker) NextDue() float64 { return t.next }
func (t *pairTicker) Fire(now float64) {
	for t.next <= now {
		t.next += t.period
	}
	bounce := int(now/t.period) % 2
	for i, p := range t.procs {
		if e, _ := p.Exited(); !e {
			_ = t.cl.RequestMigration(p, 0, t.base[i]+bounce) // the pair partner always exists
		}
	}
}

// fleetRun is what a fleet workload compares between its seq and par runs.
type fleetRun struct {
	outputs []string
	exits   []float64
	member  member.Stats
	msg     msg.Stats
	simSec  float64 // simulated seconds to finish the fixed work
	rounds  float64 // membership protocol rounds over the run, summed over nodes
}

func (a *fleetRun) agrees(b *fleetRun) error {
	if !slices.Equal(a.outputs, b.outputs) {
		return fmt.Errorf("seq and par job outputs differ: %q vs %q", a.outputs, b.outputs)
	}
	if !slices.Equal(a.exits, b.exits) {
		return fmt.Errorf("seq and par exit instants differ: %v vs %v", a.exits, b.exits)
	}
	if a.member != b.member {
		return fmt.Errorf("seq and par member.Stats differ: %+v vs %+v", a.member, b.member)
	}
	if a.msg != b.msg {
		return fmt.Errorf("seq and par msg.Stats differ: %+v vs %+v", a.msg, b.msg)
	}
	return nil
}

// flagshipScenario sizes the busy-fleet scenario; the flagship workload
// uses BENCH_engine.json's numbers, the tests a miniature.
type flagshipScenario struct {
	racks, perRack int
	memberSeed     int64
	img            *link.Image
	want           string
}

// run executes the scenario on one engine: one ballast job per node pair,
// a 2 ms timer bouncing every job between its pair partners, SWIM at
// 20 ms on a 4:1 fat-tree, stepped until every job has exited and then
// settled to an absolute horizon both engines reach.
func (s flagshipScenario) run(c *opCtx, eng string) (*fleetRun, error) {
	n := s.racks * s.perRack
	cl, _, err := kernel.NewClusterTopo(pairArches(n), kernel.DefaultInterconnect(),
		topo.Spec{Kind: topo.KindFatTree, Racks: s.racks, Oversub: 4})
	if err != nil {
		return nil, err
	}
	er := c.engine(cl, eng)
	svc, err := member.Attach(cl, member.Config{HeartbeatPeriod: 20e-3, Seed: s.memberSeed})
	if err != nil {
		return nil, err
	}
	tick := &pairTicker{period: 2e-3, next: 2e-3, cl: cl}
	for nd := 0; nd < n; nd += 2 {
		p, err := cl.Spawn(s.img, nd)
		if err != nil {
			return nil, err
		}
		tick.procs = append(tick.procs, p)
		tick.base = append(tick.base, nd)
	}
	cl.SetTimerSource(tick)

	fr := &fleetRun{}
	err = er.drive(func() error {
		const horizon = 2.0
		for live := true; live; {
			live = false
			for _, p := range tick.procs {
				if e, _ := p.Exited(); !e {
					live = true
				}
			}
			if live && (cl.Time() > horizon || !cl.Step()) {
				return fmt.Errorf("flagship (%s): jobs still running at t=%v", eng, cl.Time())
			}
		}
		// Counters are comparable only at a common instant: the parallel
		// engine's last window runs up to one epoch past the last exit.
		for _, p := range tick.procs {
			if t := p.ExitTime(); t > fr.simSec {
				fr.simSec = t
			}
		}
		cl.Run(fr.simSec + 5e-3)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range tick.procs {
		_, code := p.Exited()
		if err := checkGuest(fmt.Sprintf("flagship (%s) job %d", eng, i), code, p.Output(), s.want); err != nil {
			return nil, err
		}
		fr.outputs = append(fr.outputs, string(p.Output()))
		fr.exits = append(fr.exits, p.ExitTime())
	}
	fr.member, fr.msg, fr.rounds = svc.Stats(), cl.IC.Stats(), float64(n)*cl.Time()/svc.Config().HeartbeatPeriod
	return fr, nil
}

// both runs a fleet scenario on seq then par, checks that they agree and
// records seq's simulated results.
func both(c *opCtx, run func(c *opCtx, eng string) (*fleetRun, error)) error {
	seq, err := run(c, "seq")
	if err != nil {
		return err
	}
	par, err := run(c, "par")
	if err != nil {
		return err
	}
	if err := seq.agrees(par); err != nil {
		return err
	}
	c.makespan, c.rounds = seq.simSec, seq.rounds
	st := seq.member
	c.note("member.probes", float64(st.Probes))
	c.note("member.suspicions", float64(st.Suspicions))
	c.note("member.deaths", float64(st.Deaths))
	c.note("member.false_suspicions", float64(st.FalseSuspicions))
	c.simStats = append(c.simStats, fmt.Sprintf("member=%+v exits=%v", st, seq.exits))
	c.counts["member.msgs_per_node_round"] = float64(st.HeartbeatsSent) / seq.rounds
	return nil
}

// setupFlagship builds the ballast from source and the scenario
// BENCH_engine.json records: 16 nodes in 4 racks, 8 jobs. Seed 1 gives
// that file's SWIM seed, 7.
func setupFlagship(seed uint64) (func(*opCtx) error, error) {
	img, err := buildBallast()
	if err != nil {
		return nil, err
	}
	want, err := expectedOutput("ballast")
	if err != nil {
		return nil, err
	}
	s := flagshipScenario{racks: 4, perRack: 4, memberSeed: int64(seed) + 6, img: img, want: want}
	return func(c *opCtx) error { return both(c, s.run) }, nil
}
