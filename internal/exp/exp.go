// Package exp implements the experiment harness: one entry point per table
// and figure of the paper's evaluation, each regenerating the corresponding
// rows/series on the simulated testbed. cmd/hdcbench drives them through
// the study table (Studies) and re-verifies the recorded runs (Manifest).
package exp

import (
	"fmt"
	"io"

	"heterodc/internal/compiler"
	"heterodc/internal/core"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/link"
	"heterodc/internal/npb"
	"heterodc/internal/topo"
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

// Config parameterises a harness run.
type Config struct {
	Scale Scale
	W     io.Writer

	// RackNodes sizes the rack-scale experiment's machine ensemble; <= 0
	// selects the canonical 4-node rack.
	RackNodes int
	// Engine selects the cluster time engine for experiments that honour it:
	// "seq" (default) or "par"; see UseEngine.
	Engine string

	// Topo selects the interconnect fabric for experiments that honour it:
	// "flat" (default, the legacy single pipe) or "fattree". Racks and
	// Oversub shape the fat tree; 0 selects the topo package defaults.
	Topo    string
	Racks   int
	Oversub float64
}

// UseEngine attaches the named time engine to cl: "seq" (or "", the
// default) is the sequential reference, "par" (or "parallel") the parallel
// backend. Any other name is an error; a nil cl only checks the name.
func UseEngine(cl *kernel.Cluster, name string) error {
	switch name {
	case "", "seq":
		return nil
	case "par", "parallel":
		if cl != nil {
			cl.UseParallelEngine(0)
		}
		return nil
	}
	return fmt.Errorf("unknown engine %q (valid: seq, par)", name)
}

// onBothEngines runs one scenario under the sequential and then the parallel
// engine and reports whether the two fingerprints (run's second result) are
// identical. run wraps its own errors; the first one ends the pair.
func onBothEngines[T any](run func(engine string) (T, string, error)) (runs [2]T, agree bool, err error) {
	var prints [2]string
	for i, engine := range []string{"seq", "par"} {
		if runs[i], prints[i], err = run(engine); err != nil {
			return runs, false, err
		}
	}
	return runs, prints[0] == prints[1], nil
}

// topoSpec resolves the Config's fabric selection to a topo.Spec.
func (c Config) topoSpec() topo.Spec {
	switch c.Topo {
	case "", topo.KindFlat:
		return topo.FlatSpec()
	default:
		return topo.Spec{Kind: c.Topo, Racks: c.Racks, Oversub: c.Oversub}
	}
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

// runNative runs img on a fresh single-machine cluster of arch and returns
// (seconds, cluster) for stat extraction.
func runNative(img *link.Image, arch isa.Arch) (float64, *kernel.Cluster, error) {
	cl := core.NewSingle(arch)
	p, err := cl.Spawn(img, 0)
	if err != nil {
		return 0, nil, err
	}
	if _, err := cl.RunProcess(p); err != nil {
		return 0, nil, err
	}
	return cl.Time(), cl, nil
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
