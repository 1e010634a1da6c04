// Migration deep-dive: the Figure 11 scenario. The serial IS benchmark runs
// on x86 and its full_verify phase is migrated to ARM, once with the native
// multi-ISA mechanism (stack transformation + on-demand page pulls) and
// once with the PadMig-style managed-runtime baseline (whole-state
// serialize/transfer/deserialize). The example prints the power and load
// traces of both runs so the difference in migration character is visible.
package main

import (
	"fmt"
	"log"

	"heterodc/internal/core"
	"heterodc/internal/kernel"
	"heterodc/internal/npb"
	"heterodc/internal/power"
	"heterodc/internal/serial"
)

func main() {
	img, err := npb.Build(npb.IS, npb.ClassA, 1)
	if err != nil {
		log.Fatalf("build: %v", err)
	}

	// Reference run to locate the full_verify phase.
	ref, err := core.Run(img, core.NodeX86)
	if err != nil {
		log.Fatalf("ref: %v", err)
	}
	moveAt := ref.Seconds * 0.7

	runPanel := func(name string, managed bool) {
		var cl *kernel.Cluster
		var p *kernel.Process
		var err error
		if managed {
			cl = serial.NewManagedTestbed()
			p, err = serial.SpawnManaged(cl, img, core.NodeX86)
		} else {
			cl = core.NewTestbed()
			p, err = cl.Spawn(img, core.NodeX86)
		}
		if err != nil {
			log.Fatalf("%s spawn: %v", name, err)
		}
		meter := power.NewMeter(cl, power.DefaultModels(cl, false))
		meter.Record = true

		cl.OnMigration = func(ev kernel.MigrationEvent) {
			if ev.Serialized {
				fmt.Printf("[%s] t=%.4fs serialized %d KiB of state in %.1fms\n",
					name, ev.Time, ev.StateBytes/1024, ev.XformSeconds*1e3)
			} else {
				fmt.Printf("[%s] t=%.4fs stack transformed in %.0fµs; pages follow on demand\n",
					name, ev.Time, ev.XformSeconds*1e6)
			}
		}
		move := core.Job{P: p, Migrate: true, At: moveAt, To: core.NodeARM}
		if _, err := core.Drive(cl, nil, []core.Job{move}, nil); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if err := p.Err(); err != nil {
			log.Fatalf("%s failed: %v", name, err)
		}

		fmt.Printf("[%s] total %.4fs; trace (downsampled):\n", name, p.ExitTime())
		fmt.Printf("  %8s %9s %9s %7s %7s\n", "t(s)", "x86 W", "arm W", "x86 %", "arm %")
		step := len(meter.Trace)/12 + 1
		for i := 0; i < len(meter.Trace); i += step {
			s := meter.Trace[i]
			fmt.Printf("  %8.4f %9.1f %9.1f %6.0f%% %6.0f%%\n",
				s.T, s.CPUWatts[0], s.CPUWatts[1], s.LoadPct[0], s.LoadPct[1])
		}
		fmt.Println()
	}

	runPanel("native multi-ISA", false)
	runPanel("PadMig serialization", true)
}
