package exp

import (
	"fmt"

	"heterodc/internal/isa"
	"heterodc/internal/npb"
	"heterodc/internal/power"
	"heterodc/internal/sched"
)

// RackScaleRow is one policy's result on the four-machine rack.
type RackScaleRow struct {
	Policy      string
	EnergyJ     float64
	MakespanSec float64
	Migrations  int
}

// RackScale runs the rack-scale extension the paper's conclusion predicts
// (the same mechanisms at rack scale) on an N-machine ensemble
// (cfg.RackNodes, default 4). The baseline is N static x86 machines; the
// heterogeneous rack swaps the back half for (power-projected) ARM machines
// and migrates jobs dynamically — the setting in which the paper predicts
// "greater benefits ... at the rack or datacenter scale". Every policy runs
// on both time engines, which must agree on every placement and exit.
func RackScale(cfg Config) ([]RackScaleRow, error) {
	nodes := cfg.RackNodes
	if nodes <= 0 {
		nodes = 4
	}
	if nodes < 2 {
		return nil, fmt.Errorf("rack: need at least 2 nodes, got %d", nodes)
	}
	var jobsN, conc int
	var classes []npb.Class
	switch cfg.Scale {
	case Quick:
		jobsN, conc, classes = 10, 6, []npb.Class{npb.ClassS}
	case Default:
		jobsN, conc, classes = 20, 8, []npb.Class{npb.ClassS, npb.ClassA}
	default:
		jobsN, conc, classes = 60, 12, []npb.Class{npb.ClassS, npb.ClassA, npb.ClassA, npb.ClassB}
	}
	// The job counts above saturate the canonical 4-node rack; keep the
	// per-machine pressure comparable as the rack grows.
	jobsN, conc = max(jobsN*nodes/4, 4), max(conc*nodes/4, 2)
	jobs := sched.GenerateJobs(4242, jobsN, classes, nil)

	mixed := sched.RackArches(nodes)
	var rows []RackScaleRow
	for _, s := range []Scenario{
		{Arches: make([]isa.Arch, nodes), // all isa.X86, the zero Arch
			Policy: sched.NewBalanced(fmt.Sprintf("static x86(%d)", nodes), false)},
		{Arches: mixed, Policy: sched.NewBalanced("rack dynamic balanced", true)},
		{Arches: mixed, Policy: sched.NewArchWeighted("rack dynamic unbalanced", true, 2.2)},
	} {
		s.Topo = cfg.Topo
		runs, err := onBothEngines(func(engine string) (*sched.Result, string, error) {
			rig, err := s.Build(engine)
			if err != nil {
				return nil, "", err
			}
			r := sched.NewRunner(rig.Cl, s.Policy, power.DefaultModels(rig.Cl, true))
			res, err := r.Run(sched.Workload{Jobs: jobs, Concurrency: conc})
			if err != nil {
				return nil, "", fmt.Errorf("%s: %w", engine, err)
			}
			return res, res.Fingerprint(), nil
		})
		if err != nil {
			return nil, fmt.Errorf("rack %s: %w", s.Policy.Name(), err)
		}
		res := runs[0]
		rows = append(rows, RackScaleRow{
			Policy: res.Policy, EnergyJ: res.EnergyTotal,
			MakespanSec: res.Makespan, Migrations: res.Migrations,
		})
		cfg.printf("rack %-24s nodes=%d energy=%8.2fJ makespan=%.3fs migrations=%d\n",
			res.Policy, nodes, res.EnergyTotal, res.Makespan, res.Migrations)
	}
	return rows, nil
}
