package exp

import (
	"fmt"

	"heterodc/internal/compiler"
	"heterodc/internal/core"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/link"
	"heterodc/internal/npb"
	"heterodc/internal/trace"
)

// The ablation experiments quantify the design decisions DESIGN.md calls
// out, beyond the paper's own figures.

// PointPlacementRow is one migration-point-placement configuration.
type PointPlacementRow struct {
	Config string
	// OverheadPct is execution-time overhead over the uninstrumented build
	// (x86, serial).
	OverheadPct float64
	// MaxGapInstrs is the largest observed distance between points.
	MaxGapInstrs uint64
	// Points is the number of executed migration points.
	Points int
}

// AblationPointPlacement sweeps the insertion strategies: none, function
// boundaries only, the default (plus outer-loop back edges), and every back
// edge — the response-time vs overhead trade the paper tunes with its
// Valgrind analysis.
func AblationPointPlacement(cfg Config) ([]PointPlacementRow, error) {
	bench, class := npb.IS, npb.ClassA
	if cfg.Scale == Quick {
		class = npb.ClassS
	}
	base, err := buildNoMigration(bench, class, 1)
	if err != nil {
		return nil, err
	}
	rb, err := core.RunOn(core.NewSingle(isa.X86), base, 0)
	if err != nil {
		return nil, err
	}

	configs := []struct {
		name string
		opts compiler.MigrationOptions
	}{
		{"function boundaries", compiler.MigrationOptions{FunctionEntry: true, FunctionExit: true}},
		{"default (outer loops)", compiler.DefaultMigrationOptions()},
		{"every back edge", compiler.MigrationOptions{
			FunctionEntry: true, FunctionExit: true, LoopBackEdges: true,
			MaxLoopDepth: 99, MinLoopBody: 1, SkipSmallLeaf: 1,
		}},
	}
	var rows []PointPlacementRow
	for i, c := range configs {
		opts := core.BuildOptions{
			Compiler: compiler.Options{Migration: true, MigrationOpts: c.opts},
			Linker:   link.Options{Aligned: true},
		}
		img, err := npb.BuildWith(bench, class, 1, opts, fmt.Sprintf("abl-points-%d", i))
		if err != nil {
			return nil, err
		}
		cl := core.NewSingle(isa.X86)
		var h trace.DecadeHistogram
		var max uint64
		points := 0
		cl.Kernels[0].InstrumentCalls(nil, func(gap uint64) {
			h.Add(float64(gap))
			points++
			if gap > max {
				max = gap
			}
		})
		res, err := core.RunOn(cl, img, 0)
		if err != nil {
			return nil, err
		}
		row := PointPlacementRow{
			Config:       c.name,
			OverheadPct:  (res.Seconds/rb.Seconds - 1) * 100,
			MaxGapInstrs: max,
			Points:       points,
		}
		rows = append(rows, row)
		cfg.printf("ablation points %-22s overhead=%+6.2f%% points=%8d max-gap=%d\n",
			c.name, row.OverheadPct, row.Points, row.MaxGapInstrs)
	}
	return rows, nil
}

// DSMModeRow compares on-demand page migration against the stop-the-world
// eager copy.
type DSMModeRow struct {
	Mode string
	// TotalSeconds is end-to-end runtime with one mid-run container move.
	TotalSeconds float64
	// ResumeLagSeconds is the time between the migration request being
	// honoured and the thread being queued to run on the destination.
	ResumeLagSeconds float64
	// PagesMoved counts pages that crossed the interconnect.
	PagesMoved uint64
}

// AblationDSMMode runs the same migrating workload with the hDSM's
// on-demand pulls (the paper's design) and with eager whole-address-space
// copy, quantifying the no-stop-the-world benefit.
func AblationDSMMode(cfg Config) ([]DSMModeRow, error) {
	class := npb.ClassA
	if cfg.Scale == Quick {
		class = npb.ClassS
	}
	img, err := buildDefault(npb.CG, class, 1)
	if err != nil {
		return nil, err
	}
	ref, err := core.Run(img, core.NodeX86)
	if err != nil {
		return nil, err
	}
	moveAt := ref.Seconds * 0.4

	var rows []DSMModeRow
	for _, mode := range []string{"on-demand (hDSM)", "eager full copy"} {
		cl := core.NewTestbed()
		p, err := cl.Spawn(img, core.NodeX86)
		if err != nil {
			return nil, err
		}
		if mode != "on-demand (hDSM)" {
			p.SetEagerPageMigration(true)
		}
		var moveTime, resumeLag float64
		cl.OnMigration = func(ev kernel.MigrationEvent) {
			if moveTime == 0 {
				moveTime = ev.Time
				// Lag: transformation, eager copy and the transfer of the
				// shipped payload, as the kernel itself timed them.
				resumeLag = ev.ArriveTime - ev.Time
			}
		}
		if err := driveMove(cl, p, moveAt); err != nil {
			return nil, fmt.Errorf("ablation dsm: %w", err)
		}
		rows = append(rows, DSMModeRow{
			Mode:             mode,
			TotalSeconds:     p.ExitTime(),
			ResumeLagSeconds: resumeLag,
			PagesMoved:       cl.Kernels[core.NodeARM].PagesIn,
		})
		cfg.printf("ablation dsm %-18s total=%8.4fs resume-lag=%8.1fµs pages=%d\n",
			mode, p.ExitTime(), resumeLag*1e6, cl.Kernels[core.NodeARM].PagesIn)
	}
	return rows, nil
}

// AblationRows is what the ablation study returns: both sweeps.
type AblationRows struct {
	PointPlacement []PointPlacementRow
	DSMMode        []DSMModeRow
}

// Ablation runs both ablation sweeps.
func Ablation(cfg Config) (rows AblationRows, err error) {
	if rows.PointPlacement, err = AblationPointPlacement(cfg); err == nil {
		rows.DSMMode, err = AblationDSMMode(cfg)
	}
	return rows, err
}
