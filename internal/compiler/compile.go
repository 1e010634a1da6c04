// Package compiler lowers IR modules to per-ISA machine code, producing the
// multi-ISA artefacts the paper's toolchain produces: one code stream per
// architecture plus per-call-site live-value stackmaps and per-function
// frame-unwinding metadata. Symbol placement (the common address-space
// layout) is the linker's job; see internal/link.
package compiler

import (
	"fmt"

	"heterodc/internal/ir"
	"heterodc/internal/isa"
)

// Options configures a compilation.
type Options struct {
	// Migration inserts migration points (and the runtime shims). Disable to
	// build the uninstrumented baseline used by the overhead experiments
	// (Figures 6-9).
	Migration bool
	// MigrationOpts tunes point placement when Migration is set.
	MigrationOpts MigrationOptions
	// NoInline disables tiny-function inlining (on by default; applies to
	// instrumented and baseline builds alike so comparisons stay fair).
	NoInline bool
}

// DefaultOptions compiles a migratable binary with the paper's point
// placement.
func DefaultOptions() Options {
	return Options{Migration: true, MigrationOpts: DefaultMigrationOptions()}
}

// Artifact is the result of compiling one module for every ISA.
type Artifact struct {
	Module *ir.Module
	// Funcs[arch] lists lowered functions in module order.
	Funcs [isa.NumArch][]*AsmFunc

	claimed bool
}

// Claim marks a as taken by the linker and reports whether it was still
// free. The linker resolves symbols in a's code in place and fills
// addresses into its metadata, so one artifact makes exactly one image.
func (a *Artifact) Claim() bool {
	if a.claimed {
		return false
	}
	a.claimed = true
	return true
}

// FuncFor returns the lowered form of fn on arch, or nil.
func (a *Artifact) FuncFor(arch isa.Arch, fn string) *AsmFunc {
	for _, af := range a.Funcs[arch] {
		if af.Name == fn {
			return af
		}
	}
	return nil
}

// Compile runs the full middle- and back-end pipeline on m: runtime
// installation, migration-point insertion, verification, liveness, and
// per-ISA lowering. The module is mutated (runtime shims, inserted points).
func Compile(m *ir.Module, opts Options) (*Artifact, error) {
	if err := AddRuntime(m); err != nil {
		return nil, err
	}
	if !opts.NoInline {
		InlineTinyFunctions(m, 0, 0)
	}
	if opts.Migration {
		if err := InsertMigrationPoints(m, opts.MigrationOpts); err != nil {
			return nil, err
		}
	} else {
		// Still renumber call sites for determinism.
		for _, f := range m.Funcs {
			f.Finish()
		}
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("compiler: verify: %w", err)
	}
	art := &Artifact{Module: m}
	funcs := make([]*AsmFunc, isa.NumArch*len(m.Funcs))
	for _, arch := range isa.Arches {
		art.Funcs[arch], funcs = funcs[:0:len(m.Funcs)], funcs[len(m.Funcs):]
	}
	lo := newLowerer(m)
	for _, f := range m.Funcs {
		lo.begin(f)
		for _, arch := range isa.Arches {
			af, err := lo.lowerFunc(f, isa.Describe(arch))
			if err != nil {
				return nil, fmt.Errorf("compiler: %s for %s: %w", f.Name, arch, err)
			}
			art.Funcs[arch] = append(art.Funcs[arch], af)
		}
	}
	lo.flush()
	return art, nil
}
