package exp

import "testing"

// TestPartitionStudy is the split-brain acceptance gate: under every seeded
// bipartition, no process is ever live (or restored) on both sides of the
// cut, quorumless observers defer instead of executing verdicts, healing
// leaves exactly one incarnation per job with every view reconverged — and
// the whole run is byte-identical on the sequential and parallel engines
// (Partition itself fails on any engine divergence).
func TestPartitionStudy(t *testing.T) {
	rows, err := Partition(Config{Scale: Quick, Seed: 17})
	if err != nil {
		t.Fatalf("partition study: %v", err)
	}
	if len(rows) != 8 { // 4 scenarios x 2 engines
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	if err := PartitionInvariantsHold(rows); err != nil {
		t.Error(err)
	}
	// The minority-isolated scenario must actually exercise healing
	// reconciliation: the wrongly-declared nodes rejoin under bumped
	// incarnations.
	for _, r := range rows {
		if r.Scenario == "minority-isolated" && r.Rejoins == 0 {
			t.Errorf("%s/%s: no node ever rejoined after the heal", r.Scenario, r.Engine)
		}
	}
}
