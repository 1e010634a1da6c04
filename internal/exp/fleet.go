package exp

import (
	"errors"
	"fmt"

	"heterodc/internal/isa"
	"heterodc/internal/npb"
	"heterodc/internal/sched"
	"heterodc/internal/traffic"
)

// fleetWaveFracs is the staged x86→ARM rollout schedule: the fraction of the
// fleet swapped to (power-projected) ARM machines at each wave.
var fleetWaveFracs = []float64{0, 0.25, 0.50, 0.75, 1.00}

// FleetWave is one rollout wave's SLO scorecard.
type FleetWave struct {
	ArmFrac  float64 `json:"arm_frac"`
	ArmNodes int     `json:"arm_nodes"`
	Nodes    int     `json:"nodes"`

	ThroughputJobsPerSec float64 `json:"throughput_jobs_per_sec"`
	P50Sec               float64 `json:"p50_sec"`
	P99Sec               float64 `json:"p99_sec"`
	MaxSec               float64 `json:"max_sec"`
	Violations           int     `json:"violations"`
	ViolationRate        float64 `json:"violation_rate"`
	Healthy              bool    `json:"healthy"`

	EnergyJ     float64 `json:"energy_j"`
	MakespanSec float64 `json:"makespan_sec"`
	Migrations  int     `json:"migrations"`

	// EnginesAgree records that the sequential and parallel engines produced
	// bit-identical per-job timings and SLO reports for this wave. (Energy is
	// reported from the sequential run; the meters integrate over different
	// interval boundaries, so joules agree only up to float association.)
	EnginesAgree bool `json:"engines_agree"`
}

// FleetSeries is one arrival process's staged rollout.
type FleetSeries struct {
	Arrivals       string      `json:"arrivals"`
	RateJobsPerSec float64     `json:"rate_jobs_per_sec"`
	Jobs           int         `json:"jobs"`
	SLOTargetSec   float64     `json:"slo_target_sec"`
	BudgetFrac     float64     `json:"budget_frac"`
	Waves          []FleetWave `json:"waves"`
	// RolledOut reports that every wave up to 100% ARM stayed within the
	// error budget; when false, Waves ends at the wave that tripped the gate.
	RolledOut bool `json:"rolled_out"`
}

// fleetArches mixes a fleet of n machines with the trailing armNodes swapped
// to ARM — the rollout replaces machines from the back, mirroring the rack
// study's mixed ensemble.
func fleetArches(n, armNodes int) []isa.Arch {
	arches := make([]isa.Arch, n) // all isa.X86, the zero Arch
	for i := n - armNodes; i < n; i++ {
		arches[i] = isa.ARM64
	}
	return arches
}

// fleetParams resolves the scale's fleet size, offered load and SLO.
func fleetParams(cfg Config) (nodes, jobsN int, classes []npb.Class, rate float64, slo traffic.SLO) {
	switch cfg.Scale {
	case Quick:
		nodes, jobsN, classes = 4, 12, []npb.Class{npb.ClassS}
		rate, slo = 250, traffic.SLO{LatencyTargetSec: 0.25, BudgetFrac: 0.10}
	case Default:
		nodes, jobsN, classes = 6, 30, []npb.Class{npb.ClassS, npb.ClassA}
		rate, slo = 120, traffic.SLO{LatencyTargetSec: 1.0, BudgetFrac: 0.10}
	default:
		nodes, jobsN, classes = 8, 80, []npb.Class{npb.ClassS, npb.ClassA, npb.ClassB}
		rate, slo = 80, traffic.SLO{LatencyTargetSec: 2.0, BudgetFrac: 0.10}
	}
	if cfg.Rate > 0 {
		rate = cfg.Rate
	}
	if cfg.SLO > 0 {
		slo.LatencyTargetSec = cfg.SLO
	}
	return nodes, jobsN, classes, rate, slo
}

// Fleet runs the open-loop fleet-traffic study: a staged x86→ARM rollout
// sweeping the ARM fraction in waves (0% → 25% → 50% → 75% → 100%) under
// each offered arrival process. Every wave replays the identical offered
// stream on a fresh mixed fleet and is scored against the latency SLO; the
// rollout only advances while the error budget holds, so an unhealthy wave
// ends its series. Each wave runs under both time engines and the results
// must be bit-identical (the open-loop driver injects work via engine
// control events).
func Fleet(cfg Config) ([]FleetSeries, error) {
	kinds := cfg.Arrivals
	if len(kinds) == 0 {
		kinds = traffic.Kinds()
	}
	nodes, jobsN, classes, rate, slo := fleetParams(cfg)

	var out []FleetSeries
	for _, kind := range kinds {
		src, err := traffic.NewSource(traffic.Spec{Kind: kind, Rate: rate, Seed: 9001}.WithDefaults())
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		// One offered stream per process, replayed identically by every wave.
		jobs := sched.GenerateJobs(8484, jobsN, classes, traffic.Spacing(src))

		series := FleetSeries{
			Arrivals: string(kind), RateJobsPerSec: rate, Jobs: jobsN,
			SLOTargetSec: slo.LatencyTargetSec, BudgetFrac: slo.BudgetFrac,
		}
		cfg.printf("fleet %-8s rate=%g/s jobs=%d slo=%gs budget=%g%%\n",
			kind, rate, jobsN, slo.LatencyTargetSec, slo.BudgetFrac*100)

		healthy := true
		for _, frac := range fleetWaveFracs {
			if !healthy {
				break // the gate tripped: no wave advances while violating
			}
			armNodes := int(frac*float64(nodes) + 0.5)
			runs, err := Scenario{
				Name:   fmt.Sprintf("fleet %s wave %.0f%%", kind, frac*100),
				Arches: fleetArches(nodes, armNodes), Topo: cfg.Topo,
				Open:   &sched.OpenLoop{Jobs: jobs, SLO: slo},
				Policy: sched.NewBalanced("fleet dynamic balanced", true),
			}.runBoth()
			if err != nil && !errors.Is(err, errDiverged) {
				return nil, err
			}
			seq := runs[0].Open

			w := FleetWave{
				ArmFrac: frac, ArmNodes: armNodes, Nodes: nodes,
				ThroughputJobsPerSec: seq.ThroughputJobsPerSec,
				P50Sec:               seq.SLO.Summary.P50Sec,
				P99Sec:               seq.SLO.Summary.P99Sec,
				MaxSec:               seq.SLO.Summary.MaxSec,
				Violations:           seq.SLO.Violations,
				ViolationRate:        seq.SLO.ViolationRate,
				Healthy:              seq.SLO.Healthy,
				EnergyJ:              seq.EnergyTotal,
				MakespanSec:          seq.Makespan,
				Migrations:           seq.Migrations,
				EnginesAgree:         err == nil,
			}
			series.Waves = append(series.Waves, w)
			healthy = w.Healthy
			cfg.printf("  wave arm=%3.0f%% (%d/%d ARM) thr=%7.1f/s p50=%.4fs p99=%.4fs viol=%d (%.1f%%) energy=%7.2fJ mig=%d engines=%v healthy=%v\n",
				frac*100, armNodes, nodes, w.ThroughputJobsPerSec, w.P50Sec, w.P99Sec,
				w.Violations, w.ViolationRate*100, w.EnergyJ, w.Migrations, w.EnginesAgree, w.Healthy)
		}
		series.RolledOut = healthy && len(series.Waves) == len(fleetWaveFracs)
		if !series.RolledOut {
			cfg.printf("rollout gated: %s halted at wave %d (violation rate %.1f%% over budget %.1f%%)\n",
				series.Arrivals, len(series.Waves), series.Waves[len(series.Waves)-1].ViolationRate*100, series.BudgetFrac*100)
		}
		out = append(out, series)
	}
	return out, nil
}

// FleetInvariantsHold machine-checks the rollout protocol over emitted
// series: both engines agreed on every wave's SLO report, accounting is
// internally consistent, and no wave was entered after a tripped gate.
func FleetInvariantsHold(series []FleetSeries) error {
	if len(series) == 0 {
		return fmt.Errorf("fleet: no series emitted")
	}
	for _, s := range series {
		if len(s.Waves) == 0 {
			return fmt.Errorf("fleet %s: no waves emitted", s.Arrivals)
		}
		for i, w := range s.Waves {
			if !w.EnginesAgree {
				return fmt.Errorf("fleet %s wave %.0f%%: sequential and parallel engines diverged", s.Arrivals, w.ArmFrac*100)
			}
			if w.ViolationRate < 0 || w.ViolationRate > 1 {
				return fmt.Errorf("fleet %s wave %.0f%%: violation rate %g outside [0,1]", s.Arrivals, w.ArmFrac*100, w.ViolationRate)
			}
			if w.P50Sec > w.P99Sec || w.P99Sec > w.MaxSec {
				return fmt.Errorf("fleet %s wave %.0f%%: quantiles out of order (p50=%g p99=%g max=%g)", s.Arrivals, w.ArmFrac*100, w.P50Sec, w.P99Sec, w.MaxSec)
			}
			if w.Healthy != (w.ViolationRate <= s.BudgetFrac) {
				return fmt.Errorf("fleet %s wave %.0f%%: health verdict inconsistent with budget", s.Arrivals, w.ArmFrac*100)
			}
			// The gate: every wave but the last was healthy when the next
			// was entered.
			if i < len(s.Waves)-1 && !w.Healthy {
				return fmt.Errorf("fleet %s: wave %.0f%% advanced while violating its SLO", s.Arrivals, w.ArmFrac*100)
			}
		}
		last := s.Waves[len(s.Waves)-1]
		if s.RolledOut && (len(s.Waves) != len(fleetWaveFracs) || !last.Healthy) {
			return fmt.Errorf("fleet %s: marked rolled-out without a full healthy sweep", s.Arrivals)
		}
		if !s.RolledOut && len(s.Waves) == len(fleetWaveFracs) && last.Healthy {
			return fmt.Errorf("fleet %s: full healthy sweep not marked rolled-out", s.Arrivals)
		}
	}
	return nil
}
