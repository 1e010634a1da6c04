package exp

import "testing"

// TestCkptExperimentShape is the acceptance gate for the checkpoint
// experiment: capture is invisible to the program (output always matches),
// shorter intervals write at least as many images as longer ones, and every
// permanent-crash recovery run restores exactly once and still reproduces
// the baseline output.
func TestCkptExperimentShape(t *testing.T) {
	res, err := Ckpt(Config{Scale: Quick, Seed: 9})
	if err != nil {
		t.Fatalf("ckpt experiment: %v", err)
	}
	if len(res.Overhead) != 8 || len(res.Recovery) != 8 { // 2 benches x 4 fracs
		t.Fatalf("got %d overhead / %d recovery rows, want 8/8",
			len(res.Overhead), len(res.Recovery))
	}
	byBench := map[string][]CkptOverheadRow{}
	for _, r := range res.Overhead {
		if !r.OutputMatch {
			t.Errorf("%s frac=%.2f: checkpointing changed the program output", r.Bench, r.IntervalFrac)
		}
		if r.Images < 1 {
			t.Errorf("%s frac=%.2f: no checkpoint was ever taken", r.Bench, r.IntervalFrac)
		}
		if r.Seconds < r.Base {
			t.Errorf("%s frac=%.2f: checkpointed run faster than baseline (%.6f < %.6f)",
				r.Bench, r.IntervalFrac, r.Seconds, r.Base)
		}
		byBench[r.Bench] = append(byBench[r.Bench], r)
	}
	for bench, rows := range byBench {
		// ckptFracs are swept in increasing order: image counts must not grow as
		// the interval lengthens.
		for i := 1; i < len(rows); i++ {
			if rows[i].Images > rows[i-1].Images {
				t.Errorf("%s: frac=%.2f wrote %d images but frac=%.2f wrote %d (shorter interval should write more)",
					bench, rows[i].IntervalFrac, rows[i].Images, rows[i-1].IntervalFrac, rows[i-1].Images)
			}
		}
	}
	for _, r := range res.Recovery {
		if r.Restores != 1 {
			t.Errorf("%s frac=%.2f: %d restores, want exactly 1", r.Bench, r.IntervalFrac, r.Restores)
		}
		if !r.OutputMatch {
			t.Errorf("%s frac=%.2f: recovered run diverged from the baseline output", r.Bench, r.IntervalFrac)
		}
		if r.WorkReplayed < 0 {
			t.Errorf("%s frac=%.2f: negative replay window %.6f", r.Bench, r.IntervalFrac, r.WorkReplayed)
		}
	}
}
