// Consolidation: the datacenter-energy scenario from the paper's
// introduction. A mix of jobs runs under three scheduling policies — the
// static two-x86 baseline and the dynamic balanced/unbalanced policies that
// exploit heterogeneous-ISA migration — and the example reports per-machine
// energy, makespan and the energy/performance trade the paper measures.
package main

import (
	"fmt"
	"log"

	"heterodc/internal/npb"
	"heterodc/internal/sched"
)

func main() {
	// A deterministic mix of short and long jobs across the benchmark suite
	// (the paper mixes NPB kernels with bzip2smp and the Verus checker).
	jobs := sched.GenerateJobs(2024, 10, []npb.Class{npb.ClassS, npb.ClassA}, nil)

	policies := []sched.Policy{
		sched.StaticX86Pair(),
		sched.DynamicBalanced(),
		sched.DynamicUnbalanced(),
	}

	fmt.Printf("%-24s %10s %12s %12s %12s %6s\n",
		"policy", "makespan", "energy[0]", "energy[1]", "total J", "moves")

	var staticEnergy, staticMakespan float64
	for _, pol := range policies {
		cl, models := sched.TestbedFor(pol) // ARM power FinFET-projected
		runner := sched.NewRunner(cl, pol, models)
		res, err := runner.Run(sched.Workload{Jobs: jobs, Concurrency: 4})
		if err != nil {
			log.Fatalf("%s: %v", pol.Name(), err)
		}
		fmt.Printf("%-24s %9.3fs %11.2fJ %11.2fJ %11.2fJ %6d\n",
			res.Policy, res.Makespan, res.EnergyCPU[0], res.EnergyCPU[1],
			res.EnergyTotal, res.Migrations)
		if pol.Name() == "static x86(2)" {
			staticEnergy, staticMakespan = res.EnergyTotal, res.Makespan
		} else if staticEnergy > 0 {
			fmt.Printf("  -> vs static pair: %+.1f%% energy, %.2fx makespan\n",
				(res.EnergyTotal/staticEnergy-1)*100, res.Makespan/staticMakespan)
		}
	}
}
