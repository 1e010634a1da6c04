package exp

import "testing"

// TestMemberScaleStudy is the scaling acceptance gate at CI size: SWIM's
// per-node traffic must be flat and its state sub-quadratic, the injected
// crash must be detected at every size (sooner than the recorded lease
// baseline), and 1% loss must never produce a false death. The 8/64/256
// acceptance grid runs through hdcbench -exp member-scaling; this covers the
// same invariants at {8, 16}.
func TestMemberScaleStudy(t *testing.T) {
	rows, err := MemberScale(Config{Scale: Quick, Seed: 3})
	if err != nil {
		t.Fatalf("member-scale study: %v", err)
	}
	if len(rows) != 2 { // 2 sizes x 1 protocol
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if err := MemberScaleShapeHolds(rows); err != nil {
		t.Error(err)
	}
	for _, r := range rows {
		if r.MsgsPerNodeRound > 6 {
			t.Errorf("swim n=%d: %.2f msgs/node/round, want O(1) (few per round)",
				r.Nodes, r.MsgsPerNodeRound)
		}
		if r.StateRecords > 4*r.Nodes {
			t.Errorf("swim n=%d: %d state records, want O(n) after one crash",
				r.Nodes, r.StateRecords)
		}
	}
}
