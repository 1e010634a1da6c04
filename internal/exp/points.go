package exp

import (
	"fmt"

	"heterodc/internal/core"
	"heterodc/internal/isa"
	"heterodc/internal/link"
	"heterodc/internal/npb"
	"heterodc/internal/trace"
)

// Fig345Result reproduces Figures 3-5: histograms of the number of
// instructions between migration opportunities, before ("Pre": points only
// at function boundaries, the naturally occurring equivalence points) and
// after ("Post": with loop back-edge points inserted, the paper's final
// placement guided by its Valgrind analysis).
type Fig345Result struct {
	Bench npb.Bench
	Class npb.Class
	Pre   trace.DecadeHistogram
	Post  trace.DecadeHistogram
	// PreMax / PostMax are the largest observed inter-point gaps.
	PreMax, PostMax uint64
}

// Fig345 runs the instruction-distance analysis for CG, IS and FT.
func Fig345(cfg Config) ([]*Fig345Result, error) {
	class := npb.ClassA
	if cfg.Scale == Quick {
		class = npb.ClassS
	}
	var out []*Fig345Result
	for _, b := range []npb.Bench{npb.CG, npb.IS, npb.FT} {
		r := &Fig345Result{Bench: b, Class: class}

		imgPre, err := buildEntryOnly(b, class, 1)
		if err != nil {
			return nil, err
		}
		if err := measurePoints(imgPre, &r.Pre, &r.PreMax); err != nil {
			return nil, fmt.Errorf("fig345 pre %s: %w", b, err)
		}
		imgPost, err := buildDefault(b, class, 1)
		if err != nil {
			return nil, err
		}
		if err := measurePoints(imgPost, &r.Post, &r.PostMax); err != nil {
			return nil, fmt.Errorf("fig345 post %s: %w", b, err)
		}
		out = append(out, r)
		cfg.printf("fig3-5 %-4s pre: max gap %d instrs; post: max gap %d instrs\n",
			b, r.PreMax, r.PostMax)
	}
	for _, r := range out {
		r.print(cfg)
	}
	return out, nil
}

// measurePoints runs img serially on the x86 machine with the
// migration-point hook attached, recording the distribution of retired
// instructions between consecutive migration points.
func measurePoints(img *link.Image, h *trace.DecadeHistogram, max *uint64) error {
	cl := core.NewSingle(isa.X86)
	cl.Kernels[0].InstrumentCalls(nil, func(gap uint64) {
		h.Add(float64(gap))
		if gap > *max {
			*max = gap
		}
	})
	_, err := core.RunOn(cl, img, 0)
	return err
}

// print renders the histograms (one row per decade, as in the figures'
// log-scale x axis).
func (r *Fig345Result) print(cfg Config) {
	cfg.printf("\nFigure 3-5 (%s class %s): instructions between migration points\n", r.Bench, r.Class)
	cfg.printf("Pre (function boundaries only), max gap %d:\n%s", r.PreMax, r.Pre.String())
	cfg.printf("Post (with loop back-edge points), max gap %d:\n%s", r.PostMax, r.Post.String())
}

// Fig6789Row is one migration-point-overhead measurement.
type Fig6789Row struct {
	Bench   npb.Bench
	Class   npb.Class
	Threads int
	Arch    isa.Arch
	// BaseSeconds: uninstrumented; InstrSeconds: with migration points.
	BaseSeconds  float64
	InstrSeconds float64
	// OverheadPct = (instr/base - 1) * 100.
	OverheadPct float64
}

// Fig6789 reproduces Figures 6-9: the execution-time overhead of inserted
// migration points for CG and IS on both machines across classes and
// thread counts.
func Fig6789(cfg Config) ([]Fig6789Row, error) {
	var rows []Fig6789Row
	for _, b := range []npb.Bench{npb.CG, npb.IS} {
		for _, c := range cfg.classes() {
			for _, th := range cfg.threadCounts() {
				base, err := buildNoMigration(b, c, th)
				if err != nil {
					return nil, err
				}
				instr, err := buildDefault(b, c, th)
				if err != nil {
					return nil, err
				}
				for _, arch := range isa.Arches {
					rb, err := core.RunOn(core.NewSingle(arch), base, 0)
					if err != nil {
						return nil, fmt.Errorf("fig6-9 base %s.%s: %w", b, c, err)
					}
					ri, err := core.RunOn(core.NewSingle(arch), instr, 0)
					if err != nil {
						return nil, fmt.Errorf("fig6-9 instr %s.%s: %w", b, c, err)
					}
					tb, ti := rb.Seconds, ri.Seconds
					row := Fig6789Row{
						Bench: b, Class: c, Threads: th, Arch: arch,
						BaseSeconds: tb, InstrSeconds: ti,
						OverheadPct: (ti/tb - 1) * 100,
					}
					rows = append(rows, row)
					cfg.printf("fig6-9 %-4s %s t%d %-6s base=%8.4fs instrumented=%8.4fs overhead=%+.2f%%\n",
						b, c, th, arch, tb, ti, row.OverheadPct)
				}
			}
		}
	}
	return rows, nil
}

// Fig6789ShapeHolds checks the paper's claim: overheads are small (mostly
// below ~5%, always below ~10% here).
func Fig6789ShapeHolds(rows []Fig6789Row) error {
	over5 := 0
	for _, r := range rows {
		if r.OverheadPct > 10 {
			return fmt.Errorf("fig6-9: %s.%s t%d on %s overhead %.1f%% > 10%%",
				r.Bench, r.Class, r.Threads, r.Arch, r.OverheadPct)
		}
		if r.OverheadPct > 5 {
			over5++
		}
	}
	if over5*2 > len(rows) {
		return fmt.Errorf("fig6-9: more than half of configurations exceed 5%% overhead")
	}
	return nil
}
