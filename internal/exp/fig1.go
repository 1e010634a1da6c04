package exp

import (
	"fmt"

	"heterodc/internal/core"
	"heterodc/internal/dbt"
	"heterodc/internal/isa"
	"heterodc/internal/npb"
)

// Fig1Row is one emulation-slowdown measurement.
type Fig1Row struct {
	Bench   npb.Bench
	Class   npb.Class
	Threads int
	// Guest is the ISA the binary was compiled for; it runs natively on the
	// guest machine and emulated on the other machine.
	Guest isa.Arch
	// NativeSeconds / EmulatedSeconds are the two runtimes.
	NativeSeconds   float64
	EmulatedSeconds float64
	// Slowdown = emulated / native.
	Slowdown float64
}

// Fig1Result reproduces Figure 1: the slowdown of running applications
// under KVM/QEMU-style emulation versus natively — ARM binaries emulated on
// x86 (top graph) and x86 binaries emulated on ARM (bottom graph).
type Fig1Result struct {
	Rows []Fig1Row
}

// Fig1 runs the emulation-slowdown sweep.
func Fig1(cfg Config) (*Fig1Result, error) {
	benches := []npb.Bench{npb.SP, npb.IS, npb.FT, npb.BT, npb.CG}
	if cfg.Scale == Quick {
		benches = []npb.Bench{npb.IS, npb.CG}
	}
	res := &Fig1Result{}
	for _, guest := range []isa.Arch{isa.ARM64, isa.X86} {
		host := guest.Other()
		for _, b := range benches {
			for _, c := range cfg.classes() {
				for _, th := range cfg.threadCounts() {
					img, err := buildDefault(b, c, th)
					if err != nil {
						return nil, err
					}
					nat, err := core.RunOn(core.NewSingle(guest), img, 0)
					if err != nil {
						return nil, fmt.Errorf("fig1 native %s.%s: %w", b, c, err)
					}
					emu, err := dbt.NewEmulated(guest, host)
					if err != nil {
						return nil, fmt.Errorf("fig1 emul %s.%s: %w", b, c, err)
					}
					em, err := core.RunOn(emu, img, 0)
					if err != nil {
						return nil, fmt.Errorf("fig1 emul %s.%s: %w", b, c, err)
					}
					tn, te := nat.Seconds, em.Seconds
					res.Rows = append(res.Rows, Fig1Row{
						Bench: b, Class: c, Threads: th, Guest: guest,
						NativeSeconds: tn, EmulatedSeconds: te,
						Slowdown: te / tn,
					})
					cfg.printf("fig1 %-10s guest=%-6s %s%d  native=%8.4fs  emulated=%10.4fs  slowdown=%8.1fx\n",
						b, guest, c, th, tn, te, te/tn)
				}
			}
		}
	}
	res.print(cfg)
	return res, nil
}

// print renders the two panels of Figure 1.
func (r *Fig1Result) print(cfg Config) {
	for _, guest := range []isa.Arch{isa.ARM64, isa.X86} {
		host := guest.Other()
		cfg.printf("\nFigure 1 (%s): slowdown emulating %s binaries on %s vs native %s\n",
			map[isa.Arch]string{isa.ARM64: "top", isa.X86: "bottom"}[guest], guest, host, guest)
		cfg.printf("%-10s %-8s %-8s %12s\n", "bench", "class", "threads", "slowdown")
		for _, row := range r.Rows {
			if row.Guest != guest {
				continue
			}
			cfg.printf("%-10s %-8s %-8d %11.1fx\n", row.Bench, row.Class, row.Threads, row.Slowdown)
		}
	}
}

// ShapeHolds checks the paper's qualitative claims: emulation is at least
// several-fold slower everywhere, and x86-on-ARM is far worse than
// ARM-on-x86 on average.
func (r *Fig1Result) ShapeHolds() error {
	var sumA2X, sumX2A float64
	var nA2X, nX2A int
	for _, row := range r.Rows {
		if row.Slowdown < 2 {
			return fmt.Errorf("fig1: %s.%s guest %s slowdown %.2f < 2x", row.Bench, row.Class, row.Guest, row.Slowdown)
		}
		if row.Guest == isa.ARM64 {
			sumA2X += row.Slowdown
			nA2X++
		} else {
			sumX2A += row.Slowdown
			nX2A++
		}
	}
	if nA2X == 0 || nX2A == 0 {
		return fmt.Errorf("fig1: missing direction")
	}
	if sumX2A/float64(nX2A) < 3*sumA2X/float64(nA2X) {
		return fmt.Errorf("fig1: x86-on-ARM (%.1fx avg) not markedly worse than ARM-on-x86 (%.1fx avg)",
			sumX2A/float64(nX2A), sumA2X/float64(nA2X))
	}
	return nil
}
