package exp

import (
	"fmt"

	"heterodc/internal/core"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/npb"
	"heterodc/internal/trace"
)

// Fig10Result holds the stack-transformation latency distribution for one
// benchmark in one direction (latency is measured on the SOURCE machine,
// which performs the transformation).
type Fig10Result struct {
	Bench   npb.Bench
	SrcArch isa.Arch
	// LatenciesUs are per-migration transformation latencies in µs.
	LatenciesUs []float64
	Summary     trace.Summary
}

// Fig10 reproduces Figure 10: stack-transformation latency at (up to
// maxPoints) migration points of CG, EP, FT and IS, in both directions.
// The thread bounces between machines at every migration point, so every
// reachable point in the binary is exercised.
func Fig10(cfg Config) ([]*Fig10Result, error) {
	class := npb.ClassA
	maxMigrations := 4000
	if cfg.Scale == Quick {
		class = npb.ClassS
		maxMigrations = 400
	}
	var out []*Fig10Result
	for _, b := range []npb.Bench{npb.CG, npb.EP, npb.FT, npb.IS} {
		img, err := buildDefault(b, class, 1)
		if err != nil {
			return nil, err
		}
		perArch := map[isa.Arch][]float64{}

		cl := core.NewTestbed()
		p, err := cl.Spawn(img, core.NodeX86)
		if err != nil {
			return nil, err
		}
		count := 0
		cl.OnMigration = func(ev kernel.MigrationEvent) {
			perArch[ev.FromArch] = append(perArch[ev.FromArch], ev.XformSeconds*1e6)
			count++
			if count < maxMigrations {
				_ = cl.RequestMigration(p, ev.Tid, 1-ev.To)
			}
		}
		if err := cl.RequestMigration(p, 0, core.NodeARM); err != nil {
			return nil, err
		}
		if _, err := core.Wait(cl, p); err != nil {
			return nil, fmt.Errorf("fig10 %s: %w", b, err)
		}
		for _, arch := range isa.Arches {
			ls := perArch[arch]
			r := &Fig10Result{Bench: b, SrcArch: arch, LatenciesUs: ls, Summary: trace.Summarize(ls)}
			out = append(out, r)
			cfg.printf("fig10 %-4s from %-6s: %s (µs)\n", b, arch, r.Summary)
		}
	}
	return out, nil
}

// Fig10ShapeHolds checks the paper's claims: the x86 machine transforms
// stacks in under ~400 µs in the typical case, the ARM machine takes about
// twice as long, and latencies never threaten migration frequency (< ~2 ms).
func Fig10ShapeHolds(rs []*Fig10Result) error {
	med := map[isa.Arch][]float64{}
	for _, r := range rs {
		if r.Summary.N == 0 {
			continue
		}
		if r.Summary.Max > 2500 {
			return fmt.Errorf("fig10: %s from %s max %.0fµs too large", r.Bench, r.SrcArch, r.Summary.Max)
		}
		med[r.SrcArch] = append(med[r.SrcArch], r.Summary.Median)
	}
	mx := trace.Mean(med[isa.X86])
	ma := trace.Mean(med[isa.ARM64])
	if mx == 0 || ma == 0 {
		return fmt.Errorf("fig10: missing data")
	}
	if mx > 450 {
		return fmt.Errorf("fig10: x86 median latency %.0fµs exceeds ~400µs", mx)
	}
	if ratio := ma / mx; ratio < 1.4 || ratio > 3.2 {
		return fmt.Errorf("fig10: ARM/x86 latency ratio %.2f outside ~2x band", ratio)
	}
	return nil
}
