package exp

import (
	"testing"

	"heterodc/internal/core"
	"heterodc/internal/npb"
)

// TestChaosCorrectUnderFaults is the acceptance gate for the fault
// machinery: NPB kernels under a lossy fabric, a degraded-link window, a
// mid-run node crash and a permanent node crash (recovered from checkpoint)
// must still exit cleanly with byte-identical output — faults cost time,
// never correctness — and the slowdown stays bounded.
func TestChaosCorrectUnderFaults(t *testing.T) {
	rows, err := Chaos(Config{Scale: Quick, Seed: 7})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if len(rows) != 8 { // 2 benches x 4 plans
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if !r.ExitOK {
			t.Errorf("%s under %s: process did not exit cleanly", r.Bench, r.Plan)
		}
		if !r.OutputMatch {
			t.Errorf("%s under %s: output diverged from the fault-free run", r.Bench, r.Plan)
		}
		// Bounded slowdown: generous factor plus the scheduled downtime
		// (the crash plan freezes node 1 for 15% of the baseline).
		limit := r.Base*5 + 0.2*r.Base + 10e-3
		if r.Seconds > limit {
			t.Errorf("%s under %s: %.4fs exceeds bound %.4fs (base %.4fs)",
				r.Bench, r.Plan, r.Seconds, limit, r.Base)
		}
		if r.Plan == "node-crash" && (r.CrashEvents != 1 || r.RecoverEvents != 1) {
			t.Errorf("%s: crash plan recorded %d crash / %d recover events, want 1/1",
				r.Bench, r.CrashEvents, r.RecoverEvents)
		}
		if r.Plan == "node-crash-perm" {
			// The node never comes back: the run only finishes because the
			// manager restored the job from its last checkpoint.
			if r.CrashEvents != 1 || r.RecoverEvents != 0 {
				t.Errorf("%s: permanent-crash plan recorded %d crash / %d recover events, want 1/0",
					r.Bench, r.CrashEvents, r.RecoverEvents)
			}
			if r.Restores < 1 {
				t.Errorf("%s: permanent-crash plan finished without a checkpoint restore", r.Bench)
			}
			if r.Checkpoints < 2 || r.CkptBytes <= 0 {
				t.Errorf("%s: implausible checkpoint counters: images=%d bytes=%d",
					r.Bench, r.Checkpoints, r.CkptBytes)
			}
		}
	}
	// The lossy plans must actually have injected faults somewhere.
	var dropped uint64
	for _, r := range rows {
		dropped += r.Dropped
	}
	if dropped == 0 {
		t.Error("no message was ever dropped across all plans")
	}
}

// TestChaosReproducibleFromSeed: the same seed must produce the identical
// fault history, counter for counter.
func TestChaosReproducibleFromSeed(t *testing.T) {
	img, err := npb.Build(npb.IS, npb.ClassS, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := coreRunIS(t)
	if err != nil {
		t.Fatal(err)
	}
	// IS moves real data through the DSM after the migration; a 20% loss
	// rate guarantees visible fault activity to compare across runs.
	lossy := chaosScenarios(Config{Seed: 21, DropProb: 0.2}, img, ref)[0]
	run := func(sc Scenario) ([5]uint64, float64) {
		res, out, err := runTracked(sc)
		if err != nil {
			t.Fatalf("chaos run: %v", err)
		}
		stats := out.Cl.IC.Stats()
		var aborted uint64
		for _, kn := range out.Cl.Kernels {
			aborted += kn.MigrationsAborted
		}
		return [5]uint64{stats.Dropped, stats.Retries, stats.Duplicated, stats.Exhausted, aborted}, res.Seconds
	}
	c1, s1 := run(lossy)
	c2, s2 := run(lossy)
	if c1 != c2 || s1 != s2 {
		t.Fatalf("two runs of the same plan diverged: %v/%g vs %v/%g", c1, s1, c2, s2)
	}
	if c1[0] == 0 {
		t.Error("lossy plan dropped nothing; the reproducibility check is vacuous")
	}
	// A different seed gives a different history.
	c3, _ := run(chaosScenarios(Config{Seed: 22, DropProb: 0.2}, img, ref)[0])
	if c3[0] == c1[0] && c3[1] == c1[1] {
		t.Log("note: different seeds produced identical counters (possible but unlikely)")
	}
}

// coreRunIS returns the fault-free IS.S runtime on the testbed.
func coreRunIS(t *testing.T) (float64, error) {
	t.Helper()
	img, err := npb.Build(npb.IS, npb.ClassS, 1)
	if err != nil {
		return 0, err
	}
	res, err := core.Run(img, core.NodeX86)
	if err != nil {
		return 0, err
	}
	return res.Seconds, nil
}
