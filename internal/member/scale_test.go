package member

import (
	"testing"

	"heterodc/internal/fault"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/topo"
)

// idleFleetRounds runs the idle fleet's scenario — n nodes on a 16-node-rack
// fat tree, SWIM at 1 ms, node 1 crashed for good at round 40 of 80 — and
// returns the cluster, the service, and the SWIM frames the fleet sent in
// each round.
func idleFleetRounds(t *testing.T, n int) (*kernel.Cluster, *Service, []uint64) {
	t.Helper()
	const period, rounds = 1e-3, 80
	arches := make([]isa.Arch, n)
	for i := range arches {
		arches[i] = isa.Arches[i%len(isa.Arches)]
	}
	cl, _, err := kernel.NewClusterTopo(arches, kernel.DefaultInterconnect(),
		topo.Spec{Kind: topo.KindFatTree, Racks: n / 16, Oversub: 4})
	if err != nil {
		t.Fatal(err)
	}
	cl.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Node: 1, At: rounds / 2 * period}}})
	s, err := Attach(cl, Config{HeartbeatPeriod: period, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sent := make([]uint64, rounds)
	for r := range sent {
		before := s.Stats().HeartbeatsSent
		cl.Run(float64(r+1) * period)
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
