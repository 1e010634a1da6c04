package exp

import (
	"fmt"

	"heterodc/internal/core"
	"heterodc/internal/kernel"
	"heterodc/internal/npb"
	"heterodc/internal/power"
	"heterodc/internal/serial"
)

// Fig11Result reproduces Figure 11: power and load traces of migrating the
// serial IS benchmark's full_verify phase from x86 to ARM, native multi-ISA
// migration (right panel) versus PadMig-style managed-runtime serialization
// (left panel).
type Fig11Result struct {
	// Native panel.
	NativeSeconds float64
	NativeTrace   []power.Sample
	NativeMoveAt  float64
	NativePages   uint64

	// Managed (PadMig) panel.
	ManagedSeconds float64
	ManagedTrace   []power.Sample
	ManagedMoveAt  float64
	ManagedBytes   int64
	// SerializeSeconds + DeserializeSeconds of the managed migration.
	SerializeSeconds float64
}

// Fig11 runs both variants.
func Fig11(cfg Config) (*Fig11Result, error) {
	class := npb.ClassB
	if cfg.Scale == Quick {
		class = npb.ClassS
	}
	img, err := buildDefault(npb.IS, class, 1)
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{}

	// --- Native multi-ISA migration ---
	{
		// Reference duration to position the migration in the full_verify
		// phase (the trailing serial verification pass).
		ref, err := core.Run(img, core.NodeX86)
		if err != nil {
			return nil, err
		}
		moveAt := ref.Seconds * 0.70

		cl := core.NewTestbed()
		meter := power.NewMeter(cl, power.DefaultModels(cl, false))
		meter.Record = true
		p, err := cl.Spawn(img, core.NodeX86)
		if err != nil {
			return nil, err
		}
		cl.OnMigration = func(ev kernel.MigrationEvent) {
			if res.NativeMoveAt == 0 {
				res.NativeMoveAt = ev.Time
			}
		}
		requested := false
		for {
			if done, _ := p.Exited(); done {
				break
			}
			if !requested && cl.Time() >= moveAt {
				cl.RequestProcessMigration(p, core.NodeARM)
				requested = true
			}
			if !cl.Step() {
				return nil, fmt.Errorf("fig11: native cluster drained")
			}
		}
		if err := p.Err(); err != nil {
			return nil, fmt.Errorf("fig11 native: %w", err)
		}
		res.NativeSeconds = cl.Time()
		res.NativeTrace = meter.Trace
		res.NativePages = cl.Kernels[core.NodeARM].PagesIn
	}

	// --- PadMig-style managed runtime with serialization migration ---
	{
		// Managed reference run (no migration) for phase positioning.
		refCl := serial.NewManagedTestbed()
		refP, err := serial.SpawnManaged(refCl, img, core.NodeX86)
		if err != nil {
			return nil, err
		}
		if _, err := refCl.RunProcess(refP); err != nil {
			return nil, fmt.Errorf("fig11 managed ref: %w", err)
		}
		moveAt := refCl.Time() * 0.70

		cl := serial.NewManagedTestbed()
		meter := power.NewMeter(cl, power.DefaultModels(cl, false))
		meter.Record = true
		p, err := serial.SpawnManaged(cl, img, core.NodeX86)
		if err != nil {
			return nil, err
		}
		cl.OnMigration = func(ev kernel.MigrationEvent) {
			if res.ManagedMoveAt == 0 {
				res.ManagedMoveAt = ev.Time
				res.ManagedBytes = ev.StateBytes
				res.SerializeSeconds = ev.XformSeconds
			}
		}
		requested := false
		for {
			if done, _ := p.Exited(); done {
				break
			}
			if !requested && cl.Time() >= moveAt {
				cl.RequestProcessMigration(p, core.NodeARM)
				requested = true
			}
			if !cl.Step() {
				return nil, fmt.Errorf("fig11: managed cluster drained")
			}
		}
		if err := p.Err(); err != nil {
			return nil, fmt.Errorf("fig11 managed: %w", err)
		}
		res.ManagedSeconds = cl.Time()
		res.ManagedTrace = meter.Trace
	}
	cfg.printf("fig11: native total=%.4fs (migration at %.4fs, %d pages pulled on demand)\n",
		res.NativeSeconds, res.NativeMoveAt, res.NativePages)
	cfg.printf("fig11: managed total=%.4fs (migration at %.4fs, %d bytes serialized over %.4fs)\n",
		res.ManagedSeconds, res.ManagedMoveAt, res.ManagedBytes, res.SerializeSeconds)
	res.printTraces(cfg, 40)
	return res, nil
}

// printTraces renders the two panels as time series (t, per-node CPU power,
// per-node load), downsampled to at most n rows each.
func (r *Fig11Result) printTraces(cfg Config, n int) {
	panel := func(name string, tr []power.Sample) {
		cfg.printf("\nFigure 11 (%s): t(s)\tx86 W\tarm W\tx86 load%%\tarm load%%\n", name)
		step := 1
		if len(tr) > n {
			step = len(tr) / n
		}
		for i := 0; i < len(tr); i += step {
			s := tr[i]
			if len(s.CPUWatts) < 2 {
				continue
			}
			cfg.printf("%.3f\t%.1f\t%.1f\t%.0f\t%.0f\n",
				s.T, s.CPUWatts[0], s.CPUWatts[1], s.LoadPct[0], s.LoadPct[1])
		}
	}
	panel("native multi-ISA", r.NativeTrace)
	panel("PadMig serialization", r.ManagedTrace)
}

// ShapeHolds checks the paper's claims: the managed run takes roughly twice
// as long end-to-end (23 s vs 11 s at full scale), and the native migration
// resumes immediately (no serialize/deserialize dead time).
func (r *Fig11Result) ShapeHolds() error {
	if r.NativeSeconds <= 0 || r.ManagedSeconds <= 0 {
		return fmt.Errorf("fig11: missing runs")
	}
	ratio := r.ManagedSeconds / r.NativeSeconds
	if ratio < 1.5 {
		return fmt.Errorf("fig11: managed/native ratio %.2f < 1.5 (paper: ~2.1)", ratio)
	}
	if r.NativePages == 0 {
		return fmt.Errorf("fig11: native migration moved no pages on demand")
	}
	if r.SerializeSeconds <= 0 {
		return fmt.Errorf("fig11: no serialization cost observed")
	}
	return nil
}
