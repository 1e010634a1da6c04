package exp

import (
	"path/filepath"
	"testing"
)

// TestFuzzSweepQuick runs a tiny bounded sweep through the exp entry point:
// a handful of sequential seeds through the full five-way oracle. The
// current generator has no known divergences over this range, so any
// finding here is a fresh toolchain/kernel regression.
func TestFuzzSweepQuick(t *testing.T) {
	res, err := Fuzz(Config{
		Scale:     Quick,
		FuzzSeed:  1,
		FuzzMax:   3,
		CorpusDir: filepath.Join(t.TempDir(), "corpus"),
	})
	if err != nil {
		t.Fatalf("fuzz sweep: %v", err)
	}
	if res.Programs != 3 {
		t.Fatalf("swept %d programs, want 3", res.Programs)
	}
	if res.Divergences != 0 || res.Unreduced != 0 {
		t.Errorf("sweep found %d divergences (%d unreduced): %v",
			res.Divergences, res.Unreduced, res.Repros)
	}
	if res.Points == 0 || res.Images == 0 {
		t.Errorf("sweep exercised no migration points (%d) or checkpoint images (%d)",
			res.Points, res.Images)
	}
	if res.ProgramsPerSec <= 0 {
		t.Errorf("non-positive throughput %v", res.ProgramsPerSec)
	}
}
