// Package exp implements the experiment harness: one entry point per table
// and figure of the paper's evaluation, each regenerating the corresponding
// rows/series on the simulated testbed. cmd/hdcbench drives them through
// the study table (Studies) and re-verifies the recorded runs (Manifest).
package exp

import (
	"errors"
	"fmt"
	"io"
	"time"

	"heterodc/internal/compiler"
	"heterodc/internal/core"
	"heterodc/internal/link"
	"heterodc/internal/npb"
	"heterodc/internal/topo"
	"heterodc/internal/traffic"
)

// Scale selects experiment size.
type Scale int

const (
	// Quick: smoke-test size (CI, unit tests).
	Quick Scale = iota
	// Default: minutes-scale, preserves every trend.
	Default
	// Full: the paper's full parameter grid (tens of minutes).
	Full
)

// Config is everything a study reads: the scale, where it prints, and the
// values hdcbench's flags set. A zero field picks the documented default,
// and a study ignores the fields of the others.
type Config struct {
	Scale Scale
	W     io.Writer

	// Seed selects the deterministic fault, rotation and storm streams of
	// every study that draws them; storm reads <= 0 as 77.
	Seed int64
	// Rate is the fleet and storm studies' offered arrival rate in
	// jobs/sec; <= 0 picks the scale default.
	Rate float64
	// SLO is their per-job latency target in seconds, with the scale's 10 %
	// error budget; <= 0 picks the scale default.
	SLO float64
	// Topo is the fabric of the studies that honour it (rack,
	// member-scaling, fleet); the zero value is the flat pipe.
	Topo topo.Spec

	// RackNodes sizes the rack study's ensemble; <= 0 selects the
	// canonical 4-node rack.
	RackNodes int
	// DropProb is the chaos study's baseline loss probability (the
	// degraded and crash plans derive theirs from it); zero means 2 %.
	// CrashFrac places its node-1 outage as a fraction of the fault-free
	// runtime; zero means 0.35 (recovery at CrashFrac + 0.15).
	DropProb, CrashFrac float64
	// PeriodFracs are the detector study's heartbeat periods, as fractions
	// of the fault-free runtime; empty means {1/80, 1/40, 1/20}.
	PeriodFracs []float64
	// Arrivals selects the fleet study's traffic processes; empty runs all
	// three.
	Arrivals []traffic.Kind
	// MTTF and MTTR override the storm study's node-churn means in
	// seconds; <= 0 picks the scale defaults.
	MTTF, MTTR float64

	// FuzzSeed is the fuzz sweep's first generator seed (programs use
	// FuzzSeed, FuzzSeed+1, ...); zero means 1.
	FuzzSeed int64
	// FuzzBudget bounds the sweep's wall-clock time; zero selects 5s
	// quick, 30s default, 120s full. FuzzMax stops it after that many
	// programs (0: none).
	FuzzBudget time.Duration
	FuzzMax    int
	// CorpusDir is where the sweep writes reduced repros; empty selects the
	// package corpus (internal/fuzz/testdata).
	CorpusDir string
}

// errDiverged is what onBothEngines wraps when the engines disagree.
var errDiverged = errors.New("engines diverge")

// onBothEngines runs one scenario under the sequential and then the parallel
// engine. run wraps its own errors; the first one ends the pair. Two
// fingerprints (run's second result) that differ are an errDiverged naming
// both, with both runs returned.
func onBothEngines[T any](run func(engine string) (T, string, error)) (runs [2]T, err error) {
	var prints [2]string
	for i, engine := range []string{"seq", "par"} {
		if runs[i], prints[i], err = run(engine); err != nil {
			return runs, err
		}
	}
	if prints[0] != prints[1] {
		err = fmt.Errorf("%w:\nseq %s\npar %s", errDiverged, prints[0], prints[1])
	}
	return runs, err
}

func (c Config) out() io.Writer {
	if c.W == nil {
		return io.Discard
	}
	return c.W
}

func (c Config) printf(format string, args ...interface{}) {
	fmt.Fprintf(c.out(), format, args...)
}

// classes returns the problem classes exercised at this scale.
func (c Config) classes() []npb.Class {
	switch c.Scale {
	case Quick:
		return []npb.Class{npb.ClassS}
	case Default:
		return []npb.Class{npb.ClassA, npb.ClassB}
	default:
		return []npb.Class{npb.ClassA, npb.ClassB, npb.ClassC}
	}
}

// threadCounts returns the thread sweep at this scale.
func (c Config) threadCounts() []int {
	switch c.Scale {
	case Quick:
		return []int{1, 2}
	case Default:
		return []int{1, 2, 4}
	default:
		return []int{1, 2, 4, 8}
	}
}

// buildVariants caches the non-default toolchain builds the experiments use.
var (
	noMigOpts = core.BuildOptions{
		Compiler: compiler.Options{Migration: false},
		Linker:   link.Options{Aligned: true},
	}
	unalignedOpts = core.BuildOptions{
		Compiler: compiler.DefaultOptions(),
		Linker:   link.Options{Aligned: false},
	}
	entryOnlyOpts = core.BuildOptions{
		Compiler: compiler.Options{
			Migration: true,
			MigrationOpts: compiler.MigrationOptions{
				FunctionEntry: true, FunctionExit: true, LoopBackEdges: false,
			},
		},
		Linker: link.Options{Aligned: true},
	}
)

// buildDefault builds the standard migratable image.
func buildDefault(b npb.Bench, c npb.Class, threads int) (*link.Image, error) {
	return npb.Build(b, c, threads)
}

// buildNoMigration builds the uninstrumented baseline (Figures 6-9).
func buildNoMigration(b npb.Bench, c npb.Class, threads int) (*link.Image, error) {
	return npb.BuildWith(b, c, threads, noMigOpts, "nomig")
}

// buildUnaligned builds the natural-layout baseline (Table 1).
func buildUnaligned(b npb.Bench, c npb.Class, threads int) (*link.Image, error) {
	return npb.BuildWith(b, c, threads, unalignedOpts, "unaligned")
}

// buildEntryOnly builds with migration points at function boundaries only
// (the Figures 3-5 "Pre"-like configuration and the frequency ablation).
func buildEntryOnly(b npb.Bench, c npb.Class, threads int) (*link.Image, error) {
	return npb.BuildWith(b, c, threads, entryOnlyOpts, "entryonly")
}
