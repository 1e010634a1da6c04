package exp

import (
	"testing"

	"heterodc/internal/fault"
)

// TestStormQuick runs the full chaos-under-traffic study at quick scale:
// both engines, fingerprints compared, and every machine-checked
// invariant (accounting identity, no checkpointed-job loss, no
// split-brain restore, graceful degradation with post-heal recovery).
func TestStormQuick(t *testing.T) {
	res, err := Storm(Config{Scale: Quick})
	if err != nil {
		t.Fatalf("storm: %v", err)
	}
	if err := StormInvariantsHold(res); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if !res.EnginesAgree {
		t.Fatalf("engines diverged")
	}
	if res.CrashEvents == 0 && res.UplinkCuts == 0 && res.GrayCPUWindows == 0 {
		t.Fatalf("quick storm drew no chaos at all; the study tested nothing")
	}
	if res.Deaths == 0 && res.Lost == 0 && res.Shed == 0 && res.Restores == 0 && res.EvacRequests == 0 {
		t.Fatalf("storm produced no failure response (no deaths, losses, sheds, restores or evacuations)")
	}
}

// TestStormDeterministic: the same options give byte-identical chaos
// plans (the storm process is a pure function of its spec).
func TestStormDeterministic(t *testing.T) {
	spec := fault.StormSpec{
		Seed: 7, Nodes: 6, Start: 0.05, End: 0.25,
		NodeMTTF: 0.6, NodeMTTR: 0.02,
		GrayCPUMTTF: 0.4, GrayCPUMTTR: 0.06, GrayCPUFactor: 4,
	}
	a, err := fault.GenerateStorm(spec)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	b, err := fault.GenerateStorm(spec)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if len(a.Crashes) != len(b.Crashes) || len(a.Slowdowns) != len(b.Slowdowns) {
		t.Fatalf("storm draws diverged between identical specs")
	}
	for i := range a.Crashes {
		if a.Crashes[i] != b.Crashes[i] {
			t.Fatalf("crash %d diverged: %+v vs %+v", i, a.Crashes[i], b.Crashes[i])
		}
	}
	for i := range a.Slowdowns {
		if a.Slowdowns[i] != b.Slowdowns[i] {
			t.Fatalf("slowdown %d diverged", i)
		}
	}
}

// TestStormInvariantsReject exercises the checker's teeth.
func TestStormInvariantsReject(t *testing.T) {
	base := func() *StormResult {
		return &StormResult{
			Offered: 10, Completed: 8, Shed: 1, Lost: 1,
			EnginesAgree: true,
			Phases: []StormPhase{
				{Phase: "pre-storm", Offered: 3, Completed: 3},
				{Phase: "storm", Offered: 4, Completed: 2, Shed: 1, Lost: 1, Violations: 1, ViolationRate: 0.5},
				{Phase: "post-heal", Offered: 3, Completed: 3},
			},
		}
	}
	if err := StormInvariantsHold(base()); err != nil {
		t.Fatalf("healthy result rejected: %v", err)
	}
	r := base()
	r.EnginesAgree = false
	if StormInvariantsHold(r) == nil {
		t.Errorf("engine divergence accepted")
	}
	r = base()
	r.Lost = 2
	if StormInvariantsHold(r) == nil {
		t.Errorf("broken accounting identity accepted")
	}
	r = base()
	r.CheckpointedLost = 1
	if StormInvariantsHold(r) == nil {
		t.Errorf("checkpointed-job loss accepted")
	}
	r = base()
	r.Phases[1].Completed = 0
	r.Phases[1].Lost = 3
	r.Completed = 6
	r.Lost = 3
	if StormInvariantsHold(r) == nil {
		t.Errorf("storm-phase collapse accepted")
	}
	r = base()
	r.Phases[2].Violations = 3
	r.Phases[2].ViolationRate = 1
	if StormInvariantsHold(r) == nil {
		t.Errorf("post-heal regression accepted")
	}
}
