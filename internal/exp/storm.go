package exp

import (
	"fmt"

	"heterodc/internal/fault"
	"heterodc/internal/kernel"
	"heterodc/internal/member"
	"heterodc/internal/npb"
	"heterodc/internal/sched"
	"heterodc/internal/topo"
	"heterodc/internal/traffic"
)

// StormOptions parameterises the chaos-under-traffic study.
type StormOptions struct {
	// Seed selects the storm's event stream and the workload's priority
	// stamps; <= 0 picks the default.
	Seed int64
	// Rate is the offered arrival rate in jobs/sec; <= 0 picks the scale
	// default.
	Rate float64
	// SLO is the per-job latency objective; the zero value picks the
	// scale default.
	SLO traffic.SLO
	// MTTF/MTTR override the node-churn means in seconds; <= 0 picks the
	// scale defaults. Both must be overridden together (see
	// cmd/hdcbench's stormOptions validator).
	MTTF, MTTR float64
}

// StormPhase is the SLO scorecard for one slice of the run, bucketed by
// job arrival time: before the storm, during it, and after the heal.
type StormPhase struct {
	Phase     string  `json:"phase"`
	Offered   int     `json:"offered"`
	Completed int     `json:"completed"`
	Shed      int     `json:"shed"`
	Lost      int     `json:"lost"`
	P50Sec    float64 `json:"p50_sec"`
	P99Sec    float64 `json:"p99_sec"`
	MaxSec    float64 `json:"max_sec"`
	// Violations/ViolationRate are over the phase's completed jobs.
	Violations    int     `json:"violations"`
	ViolationRate float64 `json:"violation_rate"`
}

// StormResult is the chaos-under-traffic study's scorecard.
type StormResult struct {
	Nodes int `json:"nodes"`
	Racks int `json:"racks"`
	Jobs  int `json:"jobs"`

	RateJobsPerSec float64 `json:"rate_jobs_per_sec"`
	SLOTargetSec   float64 `json:"slo_target_sec"`
	BudgetFrac     float64 `json:"budget_frac"`
	StormStartSec  float64 `json:"storm_start_sec"`
	StormEndSec    float64 `json:"storm_end_sec"`

	// Injected chaos, as drawn from the seeded process.
	CrashEvents    int `json:"crash_events"`
	UplinkCuts     int `json:"uplink_cuts"`
	GrayCPUWindows int `json:"gray_cpu_windows"`
	GrayNICWindows int `json:"gray_nic_windows"`

	// Accounting over the whole run (shed+completed+lost == offered).
	Offered          int `json:"offered"`
	Completed        int `json:"completed"`
	Shed             int `json:"shed"`
	Lost             int `json:"lost"`
	CheckpointedLost int `json:"checkpointed_lost"`
	EvacRequests     int `json:"evac_requests"`
	Migrations       int `json:"migrations"`
	Checkpoints      int `json:"checkpoints"`
	Restores         int `json:"restores"`
	StaleLossEvents  int `json:"stale_loss_events"`

	Deaths          uint64 `json:"deaths"`
	FalseSuspicions uint64 `json:"false_suspicions"`

	MakespanSec float64      `json:"makespan_sec"`
	Phases      []StormPhase `json:"phases"`

	// EnginesAgree records bit-identical sequential/parallel fingerprints
	// over every per-job observable, the SLO report, the membership
	// counters and the restore log.
	EnginesAgree bool `json:"engines_agree"`
}

// stormParams resolves the scale's fleet shape, traffic and chaos process.
func stormParams(cfg Config, opts StormOptions) (racks, perRack, jobsN int, rate float64, slo traffic.SLO, spec fault.StormSpec) {
	switch cfg.Scale {
	case Quick:
		racks, perRack, jobsN = 3, 2, 36
		rate, slo = 200, traffic.SLO{LatencyTargetSec: 0.25, BudgetFrac: 0.10}
		spec = fault.StormSpec{
			Start: 0.05, End: 0.25,
			NodeMTTF: 0.6, NodeMTTR: 0.02,
			GrayCPUMTTF: 0.4, GrayCPUMTTR: 0.06, GrayCPUFactor: 4,
			GrayNICMTTF: 0.5, GrayNICMTTR: 0.05, GrayNICDrop: 0.3, GrayNICJitter: 1.5e-3,
			RackMTTF: 1.5, RackMTTR: 0.03,
			UplinkMTTF: 1.0, UplinkMTTR: 0.04,
		}
	case Default:
		racks, perRack, jobsN = 3, 2, 72
		rate, slo = 150, traffic.SLO{LatencyTargetSec: 0.4, BudgetFrac: 0.10}
		spec = fault.StormSpec{
			Start: 0.08, End: 0.45,
			NodeMTTF: 0.8, NodeMTTR: 0.03,
			GrayCPUMTTF: 0.5, GrayCPUMTTR: 0.08, GrayCPUFactor: 4,
			GrayNICMTTF: 0.6, GrayNICMTTR: 0.06, GrayNICDrop: 0.3, GrayNICJitter: 1.5e-3,
			RackMTTF: 2.0, RackMTTR: 0.04,
			UplinkMTTF: 1.2, UplinkMTTR: 0.05,
		}
	default:
		racks, perRack, jobsN = 4, 2, 120
		rate, slo = 120, traffic.SLO{LatencyTargetSec: 0.6, BudgetFrac: 0.10}
		spec = fault.StormSpec{
			Start: 0.1, End: 0.8,
			NodeMTTF: 1.0, NodeMTTR: 0.04,
			GrayCPUMTTF: 0.6, GrayCPUMTTR: 0.1, GrayCPUFactor: 5,
			GrayNICMTTF: 0.8, GrayNICMTTR: 0.08, GrayNICDrop: 0.35, GrayNICJitter: 2e-3,
			RackMTTF: 2.5, RackMTTR: 0.05,
			UplinkMTTF: 1.5, UplinkMTTR: 0.06,
		}
	}
	if opts.Rate > 0 {
		rate = opts.Rate
	}
	if opts.SLO != (traffic.SLO{}) {
		slo = opts.SLO
	}
	if opts.MTTF > 0 {
		spec.NodeMTTF = opts.MTTF
	}
	if opts.MTTR > 0 {
		spec.NodeMTTR = opts.MTTR
	}
	return racks, perRack, jobsN, rate, slo, spec
}

// stormPhases buckets the per-job records by arrival time against the
// storm window and scores each bucket's completed jobs against the SLO
// (which the open loop has validated).
func stormPhases(res *sched.OpenLoopResult, slo traffic.SLO, start, end float64) []StormPhase {
	phases := []StormPhase{{Phase: "pre-storm"}, {Phase: "storm"}, {Phase: "post-heal"}}
	accts := make([]*traffic.Accountant, len(phases))
	for i := range accts {
		accts[i], _ = traffic.NewAccountant(slo)
	}
	for i := range res.Jobs {
		j := &res.Jobs[i]
		b := 0
		if j.ArrivalSec >= start {
			b = 1
		}
		if j.ArrivalSec >= end {
			b = 2
		}
		phases[b].Offered++
		switch j.Outcome {
		case sched.OutcomeShed:
			phases[b].Shed++
		case sched.OutcomeLost:
			phases[b].Lost++
		default:
			phases[b].Completed++
			accts[b].Observe(j.SojournSec)
		}
	}
	for i, a := range accts {
		r, p := a.Report(), &phases[i]
		p.P50Sec, p.P99Sec, p.MaxSec = r.P50Sec, r.P99Sec, r.MaxSec
		p.Violations, p.ViolationRate = r.Violations, r.ViolationRate
	}
	return phases
}

// Storm runs the open-loop chaos-under-traffic study: a fat-tree fleet
// serving a Poisson stream while a seeded chaos process injects
// correlated rack failures (power events, uplink cuts), gray failures
// (CPU slowdowns, lossy NICs) and node churn. The health layer scores
// nodes from RTT inflation, refuted suspicions and retire-rate sag;
// the scheduler sheds low-priority arrivals when the SLO error budget
// burns, steers placement away from degraded nodes, evacuates running
// jobs off them, and ramps back after the heal. Both time engines run
// the identical scenario and must agree byte-for-byte.
func Storm(cfg Config, opts StormOptions) (*StormResult, error) {
	if opts.Seed <= 0 {
		opts.Seed = 77
	}
	racks, perRack, jobsN, rate, slo, spec := stormParams(cfg, opts)
	nodes := racks * perRack
	spec.Seed = opts.Seed

	// One offered stream, replayed identically by both engines.
	src, err := traffic.NewSource(traffic.Spec{Kind: traffic.KindPoisson, Rate: rate, Seed: 9001}.WithDefaults())
	if err != nil {
		return nil, fmt.Errorf("storm: %w", err)
	}
	jobs := sched.GenerateJobs(8484, jobsN, []npb.Class{npb.ClassS}, traffic.Spacing(src))
	sched.StampPriorities(jobs, opts.Seed, 3)

	// Membership counters are only comparable at a common absolute instant:
	// the open loop exits as soon as the last job is accounted, but the
	// parallel engine's final window may already have run a few extra
	// heartbeats past that retire. Makespan itself is engine-exact, so both
	// runs settle to the same instant past it before the snapshot.
	runs, agree, err := Scenario{
		Name:   "storm",
		Arches: sched.RackArches(nodes), Topo: topo.FatTree(racks, 4),
		Storm:  &spec,
		Member: &member.Config{HeartbeatPeriod: 2e-3, Seed: opts.Seed},
		Ckpt:   kernel.CkptPolicy{EverySeconds: 10e-3},
		Open: &sched.OpenLoop{Jobs: jobs, SLO: slo,
			Degrade: &sched.Degrade{Levels: 3, TolerateLoss: true}},
		Policy: sched.NewBalanced("storm dynamic balanced", true),
		Settle: 0.05,
	}.runBoth()
	if err != nil {
		return nil, err
	}
	plan, seq, st := runs[0].Plan, runs[0].Open, runs[0].Svc.Stats()
	cfg.printf("storm nodes=%d racks=%d jobs=%d rate=%g/s slo=%gs window=[%g,%g)s\n",
		nodes, racks, jobsN, rate, slo.LatencyTargetSec, spec.Start, spec.End)
	cfg.printf("  chaos: %d crash events, %d uplink cuts, %d gray-cpu, %d gray-nic windows\n",
		len(plan.Crashes), len(plan.Partitions), len(plan.Slowdowns), len(plan.Windows)/2)

	res := &StormResult{
		Nodes: nodes, Racks: racks, Jobs: jobsN,
		RateJobsPerSec: rate,
		SLOTargetSec:   slo.LatencyTargetSec, BudgetFrac: slo.BudgetFrac,
		StormStartSec: spec.Start, StormEndSec: spec.End,
		CrashEvents:    len(plan.Crashes),
		UplinkCuts:     len(plan.Partitions),
		GrayCPUWindows: len(plan.Slowdowns),
		GrayNICWindows: len(plan.Windows) / 2,

		Offered:          seq.Offered,
		Completed:        seq.Completed,
		Shed:             seq.Shed,
		Lost:             seq.Lost,
		CheckpointedLost: seq.CheckpointedLost,
		EvacRequests:     seq.EvacRequests,
		Migrations:       seq.Migrations,
		Checkpoints:      seq.Checkpoints,
		Restores:         seq.Restores,
		StaleLossEvents:  seq.Ckpt.StaleLossEvents,
		Deaths:           st.Deaths,
		FalseSuspicions:  st.FalseSuspicions,
		MakespanSec:      seq.Makespan,
		Phases:           stormPhases(seq, slo, spec.Start, spec.End),
		EnginesAgree:     agree,
	}
	for _, p := range res.Phases {
		cfg.printf("  %-9s offered=%3d done=%3d shed=%2d lost=%2d p50=%.4fs p99=%.4fs viol=%d (%.1f%%)\n",
			p.Phase, p.Offered, p.Completed, p.Shed, p.Lost, p.P50Sec, p.P99Sec, p.Violations, p.ViolationRate*100)
	}
	cfg.printf("  evac=%d mig=%d ckpt=%d restores=%d deaths=%d lost=%d engines=%v\n",
		res.EvacRequests, res.Migrations, res.Checkpoints, res.Restores, res.Deaths, res.Lost, res.EnginesAgree)
	// No split-brain restore: each incarnation is restored at most once.
	// (The restore log is not in the rows, so StormInvariantsHold cannot.)
	seen := map[int]bool{}
	for _, rr := range seq.RestoreLog {
		if seen[rr.OldPid] {
			return res, fmt.Errorf("storm: pid %d restored twice (split-brain)", rr.OldPid)
		}
		seen[rr.OldPid] = true
	}
	return res, nil
}

// StormInvariantsHold machine-checks the storm study's scorecard: both
// engines agreed, the accounting identity holds, no checkpointed job was
// permanently lost, and the SLO degraded gracefully — bounded during the
// storm, recovering after the heal — rather than collapsing.
func StormInvariantsHold(res *StormResult) error {
	if !res.EnginesAgree {
		return fmt.Errorf("storm: sequential and parallel engines diverged")
	}
	if res.Completed+res.Shed+res.Lost != res.Offered {
		return fmt.Errorf("storm: completed %d + shed %d + lost %d != offered %d",
			res.Completed, res.Shed, res.Lost, res.Offered)
	}
	if res.CheckpointedLost != 0 {
		return fmt.Errorf("storm: %d checkpointed jobs permanently lost", res.CheckpointedLost)
	}
	if len(res.Phases) != 3 {
		return fmt.Errorf("storm: expected 3 phases, got %d", len(res.Phases))
	}
	var offered, completed, shed, lost int
	for _, p := range res.Phases {
		offered += p.Offered
		completed += p.Completed
		shed += p.Shed
		lost += p.Lost
		if p.Offered != p.Completed+p.Shed+p.Lost {
			return fmt.Errorf("storm %s: phase accounting broken", p.Phase)
		}
		if p.ViolationRate < 0 || p.ViolationRate > 1 {
			return fmt.Errorf("storm %s: violation rate %g outside [0,1]", p.Phase, p.ViolationRate)
		}
		if p.Completed > 0 && (p.P50Sec > p.P99Sec || p.P99Sec > p.MaxSec) {
			return fmt.Errorf("storm %s: quantiles out of order (p50=%g p99=%g max=%g)",
				p.Phase, p.P50Sec, p.P99Sec, p.MaxSec)
		}
	}
	if offered != res.Offered || completed != res.Completed || shed != res.Shed || lost != res.Lost {
		return fmt.Errorf("storm: phase totals disagree with run totals")
	}
	storm, post := res.Phases[1], res.Phases[2]
	// Graceful, not collapsed: the fleet keeps completing work through the
	// storm, and the majority of all offered work completes.
	if storm.Offered > 0 && storm.Completed == 0 {
		return fmt.Errorf("storm: no job offered during the storm completed (collapse)")
	}
	if res.Completed*2 < res.Offered {
		return fmt.Errorf("storm: fewer than half the offered jobs completed (%d/%d)",
			res.Completed, res.Offered)
	}
	// Recovery after heal: the post-heal phase must not be worse than the
	// storm phase on the violation rate.
	if post.Completed > 0 && storm.Completed > 0 && post.ViolationRate > storm.ViolationRate {
		return fmt.Errorf("storm: violation rate worsened after the heal (%.3f > %.3f)",
			post.ViolationRate, storm.ViolationRate)
	}
	return nil
}
