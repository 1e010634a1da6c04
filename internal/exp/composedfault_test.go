package exp

import (
	"testing"

	"heterodc/internal/fault"
	"heterodc/internal/member"
	"heterodc/internal/sched"
	"heterodc/internal/topo"
)

// runComposedFaults drives a membership-attached fat-tree fleet through a
// composed fault plan — a rack power event, an uplink leg cut and a one-way
// bipartition, all overlapping — on one engine, and digests the detector's
// observables. The windows deliberately heal in a staircase so precedence
// (any active window severs) and heal ordering (a leg clears only at the
// last covering window's heal) are both on the critical path of every
// suspicion and refutation the digest counts.
func runComposedFaults(t *testing.T, engine string) (member.Stats, string) {
	t.Helper()
	spec := topo.FatTree(2, 4)
	fab, err := topo.Build(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	rig, err := Scenario{
		Arches: sched.RackArches(4), Topo: spec,
		Faults: fault.Plan{
			Seed: 5,
			// Rack 1 power event: both members die together, power back at 24ms.
			Crashes: []fault.Crash{
				{Node: 2, At: 0.010, RecoverAt: 0.024},
				{Node: 3, At: 0.010, RecoverAt: 0.024},
			},
			Partitions: []fault.PartitionWindow{
				// Rack 0's uplink transmit path dies first and heals last...
				{Legs: fab.Legs(fab.UplinkUp(0)), Start: 0.006, HealAt: 0.034},
				// ...while node 1's NIC goes half-dead inside that window.
				{GroupA: []int{1}, OneWay: true, Start: 0.014, HealAt: 0.028},
			},
		},
		Member: &member.Config{HeartbeatPeriod: 2e-3, Seed: 5},
		Settle: 0.060,
	}.Run(engine)
	if err != nil {
		t.Fatal(err)
	}
	return rig.Svc.Stats(), rig.Fingerprint()
}

// TestComposedFaultsBothEngines: overlapping rack-power, uplink-leg and
// one-way windows must produce byte-identical membership behaviour under
// the sequential and parallel engines — the composed cut/heal schedule is
// part of the deterministic contract, not just each window in isolation.
func TestComposedFaultsBothEngines(t *testing.T) {
	st, seq := runComposedFaults(t, "seq")
	_, par := runComposedFaults(t, "par")
	if seq != par {
		t.Fatalf("engines diverged under composed faults:\nseq: %s\npar: %s", seq, par)
	}
	// The composed windows must actually exercise the detector: outages
	// raise suspicions, and the staircase heals let refutation/readmission
	// run before any verdict lands.
	if st.Suspicions == 0 {
		t.Error("composed faults raised no suspicion; the scenario tested nothing")
	}
	if st.Readmissions == 0 && st.Refutations == 0 {
		t.Error("no readmission or refutation: the heal ordering never ran")
	}
}
