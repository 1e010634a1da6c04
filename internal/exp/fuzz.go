package exp

import (
	"fmt"
	"time"

	"heterodc/internal/fuzz"
)

// The fuzz experiment drives the differential fuzzer as a sweep: generate
// programs from sequential seeds, push each through the five-way oracle,
// and reduce + archive anything that diverges. It is the throughput-facing
// entry point (programs/sec) next to the go-test entry point
// (FuzzDifferential), and the 30-second CI smoke runs through it.

// FuzzResult summarises one sweep.
type FuzzResult struct {
	Programs       int
	Divergences    int
	Unreduced      int // divergences the reducer failed to shrink/archive
	Repros         []string
	Skipped        int // ungradable programs (reference-run timeouts)
	Seconds        float64
	ProgramsPerSec float64
	// Points/Images total the migration points and checkpoint images the
	// sweep pushed through the oracle.
	Points uint64
	Images int
}

// Fuzz runs the sweep. A build failure is returned as an error — the
// generator promises valid programs, so that is a harness bug, not a
// finding. Divergences are findings: reduced, archived and counted.
func Fuzz(cfg Config) (*FuzzResult, error) {
	seed := cfg.FuzzSeed
	if seed == 0 {
		seed = 1
	}
	budget := cfg.FuzzBudget
	if budget == 0 {
		switch cfg.Scale {
		case Quick:
			budget = 5 * time.Second
		case Full:
			budget = 120 * time.Second
		default:
			budget = 30 * time.Second
		}
	}
	dir := cfg.CorpusDir
	if dir == "" {
		dir = fuzz.CorpusDir()
	}

	res := &FuzzResult{}
	start := time.Now()
	for i := 0; ; i++ {
		if cfg.FuzzMax > 0 && res.Programs >= cfg.FuzzMax {
			break
		}
		if time.Since(start) > budget {
			break
		}
		s := seed + int64(i)
		p := fuzz.Generate(s)
		v, err := fuzz.RunProg(p)
		if err != nil {
			if _, berr := buildProbe(p); berr != nil {
				return nil, fmt.Errorf("exp: fuzz seed %d: %w", s, err)
			}
			res.Skipped++
			continue
		}
		res.Programs++
		res.Points += v.Points
		res.Images += v.Images
		if !v.Ref().OK {
			return nil, fmt.Errorf("exp: fuzz seed %d: generated program failed on reference node", s)
		}
		if v.Diverged {
			res.Divergences++
			cfg.printf("seed %d DIVERGED: %s\n", s, v.Diffs[0])
			check := func(c *fuzz.Prog) bool {
				cv, cerr := fuzz.RunProg(c)
				return cerr == nil && cv.Diverged
			}
			red, checks := fuzz.Reduce(p, check, 150)
			path, werr := fuzz.WriteRepro(dir, fuzz.Render(red))
			if werr != nil {
				res.Unreduced++
				cfg.printf("  reduction archived FAILED: %v\n", werr)
				continue
			}
			res.Repros = append(res.Repros, path)
			cfg.printf("  reduced in %d checks -> %s\n", checks, path)
		}
		if res.Programs%25 == 0 {
			el := time.Since(start).Seconds()
			cfg.printf("  %5d programs %6.1f/s  %d divergences  %d points\n",
				res.Programs, float64(res.Programs)/el, res.Divergences, res.Points)
		}
	}
	res.Seconds = time.Since(start).Seconds()
	if res.Seconds > 0 {
		res.ProgramsPerSec = float64(res.Programs) / res.Seconds
	}
	cfg.printf("fuzz: %d programs in %.1fs (%.1f/s), %d divergences (%d unreduced), %d skipped, %d points, %d ckpt images\n",
		res.Programs, res.Seconds, res.ProgramsPerSec,
		res.Divergences, res.Unreduced, res.Skipped, res.Points, res.Images)
	return res, nil
}

// FuzzShapeHolds fails on any divergence: one the reducer could not shrink
// and archive, or one it could (the repro paths are in the error).
func FuzzShapeHolds(res *FuzzResult) error {
	if res.Unreduced > 0 {
		return fmt.Errorf("%d divergences could not be reduced and archived", res.Unreduced)
	}
	if res.Divergences > 0 {
		return fmt.Errorf("%d divergences found (reduced repros: %v)", res.Divergences, res.Repros)
	}
	return nil
}

// buildProbe distinguishes "program does not build" (generator bug, fatal)
// from "oracle could not grade it" (timeout, skippable).
func buildProbe(p *fuzz.Prog) (bool, error) {
	_, err := fuzz.BuildProg(p)
	return err == nil, err
}
