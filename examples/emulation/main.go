// Emulation: the Figure 1 motivation. Running a binary compiled for the
// "wrong" ISA through DBT emulation is orders of magnitude slower than
// native execution — which is why the paper builds real cross-ISA migration
// instead of hiding heterogeneity behind an emulator.
package main

import (
	"fmt"
	"log"

	"heterodc/internal/core"
	"heterodc/internal/dbt"
	"heterodc/internal/isa"
	"heterodc/internal/npb"
)

func main() {
	fmt.Printf("%-6s %-8s %-8s  %12s %14s %10s\n",
		"bench", "guest", "host", "native (s)", "emulated (s)", "slowdown")
	for _, b := range []npb.Bench{npb.IS, npb.CG, npb.FT} {
		img, err := npb.Build(b, npb.ClassA, 1)
		if err != nil {
			log.Fatalf("build %s: %v", b, err)
		}
		for _, guest := range []isa.Arch{isa.ARM64, isa.X86} {
			host := guest.Other()

			// Native: the guest binary on its own machine.
			nat, err := core.RunOn(core.NewSingle(guest), img, 0)
			if err != nil {
				log.Fatal(err)
			}

			// Emulated: the same guest binary on the other machine via DBT.
			emu, err := dbt.NewEmulated(guest, host)
			if err != nil {
				log.Fatal(err)
			}
			em, err := core.RunOn(emu, img, 0)
			if err != nil {
				log.Fatal(err)
			}
			native, emulated := nat.Seconds, em.Seconds

			fmt.Printf("%-6s %-8s %-8s  %12.4f %14.4f %9.1fx\n",
				b, guest, host, native, emulated, emulated/native)
		}
	}
	fmt.Println("\n(Compare: the native multi-ISA migration in examples/quickstart moves a")
	fmt.Println(" running thread across the same ISA boundary in well under a millisecond.)")
}
