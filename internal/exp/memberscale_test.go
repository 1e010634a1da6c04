package exp

import "testing"

// TestMemberScaleStudy is the scaling acceptance gate at CI size: SWIM's
// per-node traffic must be flat and its state sub-quadratic, the injected
// crash must be detected at every size (sooner than the recorded lease
// baseline), and 1% loss must never produce a false death. The 8/64/256
// acceptance grid runs through hdcbench -exp member-scaling; this covers the
// same invariants at {8, 16}.
func TestMemberScaleStudy(t *testing.T) {
	rows, err := MemberScale(Config{Scale: Quick}, MemberScaleOptions{Seed: 3})
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

// TestMemberScaleDeterministicAcrossEngines: the workload-free fleet study
// is pure membership traffic, so both cluster engines must produce the
// identical rows.
func TestMemberScaleDeterministicAcrossEngines(t *testing.T) {
	opts := MemberScaleOptions{Seed: 9, Sizes: []int{8}}
	seq, err := MemberScale(Config{Scale: Quick, Engine: "seq"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MemberScale(Config{Scale: Quick, Engine: "par"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("row counts diverge: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("engines diverge at row %d:\nseq %+v\npar %+v", i, seq[i], par[i])
		}
	}
}
