package exp

import (
	"fmt"
	"math/rand"

	"heterodc/internal/npb"
	"heterodc/internal/sched"
	"heterodc/internal/topo"
	"heterodc/internal/trace"
)

// TimeScale relates the paper's wall-clock parameters to the reproduction's
// reduced problem classes: simulated job durations and arrival spacings are
// ~1000x shorter than the testbed's, so the paper's 60-240 s wave spacing
// becomes 60-240 ms. All ratios (energy, makespan, EDP) are scale-free.
const TimeScale = 1e-3

// Fig12Set is one sustained-workload job set evaluated under every policy.
type Fig12Set struct {
	Set     int
	Results []*sched.Result
}

// fig12Policies are the sustained study's policies: the static two-x86
// baseline and the two dynamic heterogeneous policies.
func fig12Policies() []sched.Policy {
	return []sched.Policy{
		sched.StaticX86Pair(),
		sched.DynamicBalanced(),
		sched.DynamicUnbalanced(),
	}
}

func (c Config) fig12Params() (sets, jobs, conc int, classes []npb.Class) {
	switch c.Scale {
	case Quick:
		return 2, 6, 3, []npb.Class{npb.ClassS}
	case Default:
		return 4, 14, 5, []npb.Class{npb.ClassS, npb.ClassA}
	default:
		return 10, 40, 6, []npb.Class{npb.ClassS, npb.ClassA, npb.ClassA, npb.ClassB}
	}
}

// Fig12 reproduces Figure 12: sustained workloads (a fixed number of jobs
// in flight, each completion admitting the next) under static and dynamic
// policies, reporting per-machine energy and the makespan ratio to the
// static baseline. The ARM power model uses the paper's McPAT FinFET
// projection.
func Fig12(cfg Config) ([]*Fig12Set, error) {
	sets, jobs, conc, classes := cfg.fig12Params()
	var out []*Fig12Set
	for set := 0; set < sets; set++ {
		js := sched.GenerateJobs(int64(1000+set), jobs, classes, nil)
		fs := &Fig12Set{Set: set}
		for _, pol := range fig12Policies() {
			cl, models, err := sched.TestbedFor(pol, true, topo.FlatSpec())
			if err != nil {
				return nil, err
			}
			r := sched.NewRunner(cl, pol, models)
			res, err := r.Run(sched.Workload{Jobs: js, Concurrency: conc})
			if err != nil {
				return nil, fmt.Errorf("fig12 set %d %s: %w", set, pol.Name(), err)
			}
			fs.Results = append(fs.Results, res)
			cfg.printf("fig12 set-%d %-22s energy=%8.2fJ (", set, pol.Name(), res.EnergyTotal)
			for i, e := range res.EnergyCPU {
				if i > 0 {
					cfg.printf(" + ")
				}
				cfg.printf("%.2f", e)
			}
			cfg.printf(") makespan=%.3fs migrations=%d\n", res.Makespan, res.Migrations)
		}
		out = append(out, fs)
	}
	cfg.printf("\nFigure 12 summary (vs static x86 pair):\n")
	for _, r := range SummarizeFig12(out) {
		cfg.printf("  %-22s avg energy saving %5.1f%% (max %5.1f%%), makespan ratio %.2fx\n",
			r.Policy, r.AvgEnergySavingPct, r.MaxEnergySavingPct, r.AvgMakespanRatio)
	}
	return out, nil
}

// Fig12Row aggregates one dynamic policy's energy saving and makespan ratio
// relative to the static x86(2) baseline over every set.
type Fig12Row struct {
	Policy                                                   string
	AvgEnergySavingPct, MaxEnergySavingPct, AvgMakespanRatio float64
}

// SummarizeFig12 computes the aggregate rows the paper reports, in the order
// Fig12 ran the policies (each set's first result is the static baseline).
func SummarizeFig12(sets []*Fig12Set) []Fig12Row {
	var rows []Fig12Row
	for _, fs := range sets {
		static := fs.Results[0]
		for i, r := range fs.Results[1:] {
			if i == len(rows) {
				rows = append(rows, Fig12Row{Policy: r.Policy})
			}
			saving := (1 - r.EnergyTotal/static.EnergyTotal) * 100
			rows[i].AvgEnergySavingPct += saving
			rows[i].MaxEnergySavingPct = max(rows[i].MaxEnergySavingPct, saving)
			rows[i].AvgMakespanRatio += r.Makespan / static.Makespan
		}
	}
	for i := range rows {
		rows[i].AvgEnergySavingPct /= float64(len(sets))
		rows[i].AvgMakespanRatio /= float64(len(sets))
	}
	return rows
}

// Fig12ShapeHolds checks the paper's claims: the dynamic heterogeneous
// policies save energy on average versus two static x86 machines, at the
// cost of a longer makespan.
func Fig12ShapeHolds(sets []*Fig12Set) error {
	rows := SummarizeFig12(sets)
	if len(rows) == 0 {
		return fmt.Errorf("fig12: no dynamic policy ran")
	}
	for _, r := range rows {
		if r.AvgEnergySavingPct <= 0 {
			return fmt.Errorf("fig12: %s shows no average energy saving (%.1f%%)", r.Policy, r.AvgEnergySavingPct)
		}
		if r.AvgMakespanRatio < 1.0 {
			return fmt.Errorf("fig12: %s is faster than the static pair (%.2fx) — unexpected", r.Policy, r.AvgMakespanRatio)
		}
	}
	return nil
}

// Fig13Set is one periodic-arrival job set under both policies.
type Fig13Set struct {
	Set     int
	Static  *sched.Result
	Dynamic *sched.Result
}

func (c Config) fig13Params() (sets, waves, jobsPerWave int, classes []npb.Class) {
	switch c.Scale {
	case Quick:
		return 2, 2, 3, []npb.Class{npb.ClassS}
	case Default:
		return 4, 3, 5, []npb.Class{npb.ClassS, npb.ClassA}
	default:
		return 10, 5, 14, []npb.Class{npb.ClassS, npb.ClassA, npb.ClassA, npb.ClassB}
	}
}

// Fig13 reproduces Figure 13: periodic workloads — waves of job arrivals
// spaced 60-240 (scaled) seconds apart — comparing the static two-x86
// baseline with the dynamic balanced policy on energy and energy-delay
// product. Idle gaps between waves are where consolidation pays.
func Fig13(cfg Config) ([]*Fig13Set, error) {
	sets, waves, perWave, classes := cfg.fig13Params()
	var out []*Fig13Set
	for set := 0; set < sets; set++ {
		spacing := func(r *rand.Rand, i int) float64 {
			if i%perWave == 0 && i > 0 {
				return (60 + 180*r.Float64()) * TimeScale
			}
			return 0
		}
		js := sched.GenerateJobs(int64(3000+set), waves*perWave, classes, spacing)

		fs := &Fig13Set{Set: set}
		for _, pol := range []sched.Policy{sched.StaticX86Pair(), sched.DynamicBalanced()} {
			cl, models, err := sched.TestbedFor(pol, true, topo.FlatSpec())
			if err != nil {
				return nil, err
			}
			r := sched.NewRunner(cl, pol, models)
			res, err := r.Run(sched.Workload{Jobs: js})
			if err != nil {
				return nil, fmt.Errorf("fig13 set %d %s: %w", set, pol.Name(), err)
			}
			if pol.Name() == "static x86(2)" {
				fs.Static = res
			} else {
				fs.Dynamic = res
			}
			cfg.printf("fig13 set-%d %-22s energy=%8.2fJ EDP=%10.4f makespan=%.3fs migrations=%d\n",
				set, pol.Name(), res.EnergyTotal, res.EDP, res.Makespan, res.Migrations)
		}
		out = append(out, fs)
	}
	saving, edp := SummarizeFig13(out)
	cfg.printf("\nFigure 13 summary: avg energy saving %.1f%%, avg EDP reduction %.1f%%\n", saving, edp)
	return out, nil
}

// SummarizeFig13 returns the dynamic policy's average energy saving and
// average EDP reduction over the static pair, in percent.
func SummarizeFig13(sets []*Fig13Set) (energySavingPct, edpReductionPct float64) {
	var savings, edps []float64
	for _, fs := range sets {
		savings = append(savings, (1-fs.Dynamic.EnergyTotal/fs.Static.EnergyTotal)*100)
		edps = append(edps, (1-fs.Dynamic.EDP/fs.Static.EDP)*100)
	}
	return trace.Mean(savings), trace.Mean(edps)
}

// Fig13ShapeHolds checks the paper's claims: migration reduces energy for
// (almost) every set, substantially on average.
func Fig13ShapeHolds(sets []*Fig13Set) error {
	for _, fs := range sets {
		if fs.Static == nil || fs.Dynamic == nil {
			return fmt.Errorf("fig13: incomplete set %d", fs.Set)
		}
	}
	if avg, _ := SummarizeFig13(sets); avg <= 0 {
		return fmt.Errorf("fig13: no average energy saving (%.1f%%)", avg)
	}
	return nil
}
