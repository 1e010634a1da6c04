package exp

import (
	"fmt"

	"heterodc/internal/fault"
	"heterodc/internal/kernel"
	"heterodc/internal/member"
	"heterodc/internal/npb"
	"heterodc/internal/power"
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

// stormRun is one engine's complete run: the open-loop result plus the
// membership observables the fingerprint and invariants fold in.
type stormRun struct {
	res         *sched.OpenLoopResult
	st          member.Stats
	fingerprint string
}

// runStormOnce executes the storm scenario on one engine.
func runStormOnce(cfg Config, engine string, jobs []sched.Job, slo traffic.SLO, plan fault.Plan, racks, perRack int) (*stormRun, error) {
	nodes := racks * perRack
	cl, fab, err := kernel.NewClusterTopo(sched.RackArches(nodes), kernel.DefaultInterconnect(),
		topo.FatTree(racks, 4))
	if err != nil {
		return nil, err
	}
	if fab == nil {
		return nil, fmt.Errorf("storm: fat-tree fabric missing")
	}
	if err := UseEngine(cl, engine); err != nil {
		return nil, err
	}
	cl.InjectFaults(plan)
	svc, err := member.Attach(cl, member.Config{HeartbeatPeriod: 2e-3, Seed: plan.Seed})
	if err != nil {
		return nil, err
	}
	mon := member.NewMonitor(cl, svc, member.HealthConfig{})

	models := power.DefaultModels(cl, true)
	r := sched.NewRunner(cl, sched.NewBalanced("storm dynamic balanced", true), models)
	r.Checkpoint = kernel.CkptPolicy{EverySeconds: 10e-3}
	res, err := r.RunOpenLoop(sched.OpenLoop{
		Jobs: jobs,
		SLO:  slo,
		Degrade: &sched.Degrade{
			Health:       mon,
			Levels:       3,
			TolerateLoss: true,
		},
	})
	if err != nil {
		return nil, err
	}
	// Membership counters are only comparable at a common absolute
	// instant: the open loop exits as soon as the last job is accounted,
	// but the parallel engine's final window may already have run a few
	// extra heartbeats past that retire. Makespan itself is engine-exact
	// (it is part of the per-job digest), so settle both runs to the same
	// absolute horizon before snapshotting, like the partition study does.
	settle := res.Makespan + 0.05
	if t := cl.Time(); t > settle {
		return nil, fmt.Errorf("storm (%s): run overshot the settle horizon (%.6f > %.6f); raise the margin", engine, t, settle)
	}
	cl.Run(settle)
	st := svc.Stats()
	// The engine-comparison fingerprint: the open-loop digest already
	// covers every per-job observable and the SLO report; fold in the
	// membership counters and the restore log so a divergent detection or
	// recovery path cannot hide behind identical job timings.
	fp := fmt.Sprintf("%s|st=%+v|restores=%+v|stale=%d",
		res.Fingerprint(), st, res.RestoreLog, res.Ckpt.StaleLossEvents)
	return &stormRun{res: res, st: st, fingerprint: fp}, nil
}

// stormPhases buckets the per-job records by arrival time against the
// storm window and scores each bucket's completed jobs against the SLO.
func stormPhases(res *sched.OpenLoopResult, slo traffic.SLO, start, end float64) []StormPhase {
	names := []string{"pre-storm", "storm", "post-heal"}
	phases := make([]StormPhase, len(names))
	recs := make([]*traffic.Recorder, len(names))
	for i, n := range names {
		phases[i].Phase = n
		recs[i] = &traffic.Recorder{}
	}
	bucket := func(arrival float64) int {
		switch {
		case arrival < start:
			return 0
		case arrival < end:
			return 1
		default:
			return 2
		}
	}
	for i := range res.Jobs {
		j := &res.Jobs[i]
		b := bucket(j.ArrivalSec)
		phases[b].Offered++
		switch j.Outcome {
		case sched.OutcomeShed:
			phases[b].Shed++
		case sched.OutcomeLost:
			phases[b].Lost++
		default:
			phases[b].Completed++
			recs[b].Observe(j.SojournSec)
			if j.SojournSec > slo.LatencyTargetSec {
				phases[b].Violations++
			}
		}
	}
	for i := range phases {
		s := recs[i].Summary()
		phases[i].P50Sec, phases[i].P99Sec, phases[i].MaxSec = s.P50Sec, s.P99Sec, s.MaxSec
		if phases[i].Completed > 0 {
			phases[i].ViolationRate = float64(phases[i].Violations) / float64(phases[i].Completed)
		}
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
	if err := slo.Validate(); err != nil {
		return nil, fmt.Errorf("storm: %w", err)
	}
	nodes := racks * perRack

	// Draw the storm against the fabric's rack geometry. The fabric used
	// for leg routing must match the one each run builds; FatTree is
	// deterministic in (racks, oversub), so building a throwaway copy here
	// gives identical legs.
	_, fab, err := kernel.NewClusterTopo(sched.RackArches(nodes), kernel.DefaultInterconnect(),
		topo.FatTree(racks, 4))
	if err != nil {
		return nil, err
	}
	spec.Seed = opts.Seed
	spec.Nodes = nodes
	spec.Racks = racks
	spec.RackOf = fab.Rack
	spec.UplinkLegs = func(rack int) [][2]int {
		return append(fab.Legs(fab.UplinkUp(rack)), fab.Legs(fab.UplinkDown(rack))...)
	}
	plan, err := fault.GenerateStorm(spec)
	if err != nil {
		return nil, fmt.Errorf("storm: %w", err)
	}
	plan.Seed = opts.Seed

	// One offered stream, replayed identically by both engines.
	src, err := traffic.NewSource(traffic.Spec{Kind: traffic.KindPoisson, Rate: rate, Seed: 9001}.WithDefaults())
	if err != nil {
		return nil, fmt.Errorf("storm: %w", err)
	}
	jobs := sched.GenerateJobs(8484, jobsN, []npb.Class{npb.ClassS}, traffic.Spacing(src))
	sched.StampPriorities(jobs, opts.Seed, 3)

	cfg.printf("storm nodes=%d racks=%d jobs=%d rate=%g/s slo=%gs window=[%g,%g)s\n",
		nodes, racks, jobsN, rate, slo.LatencyTargetSec, spec.Start, spec.End)
	cfg.printf("  chaos: %d crash events, %d uplink cuts, %d gray-cpu, %d gray-nic windows\n",
		len(plan.Crashes), len(plan.Partitions), len(plan.Slowdowns), len(plan.Windows)/2)

	runs, agree, err := onBothEngines(func(engine string) (*stormRun, string, error) {
		run, err := runStormOnce(cfg, engine, jobs, slo, plan, racks, perRack)
		if err != nil {
			return nil, "", fmt.Errorf("storm (%s): %w", engine, err)
		}
		return run, run.fingerprint, nil
	})
	if err != nil {
		return nil, err
	}
	seq := runs[0]

	res := &StormResult{
		Nodes: nodes, Racks: racks, Jobs: jobsN,
		RateJobsPerSec: rate,
		SLOTargetSec:   slo.LatencyTargetSec, BudgetFrac: slo.BudgetFrac,
		StormStartSec: spec.Start, StormEndSec: spec.End,
		CrashEvents:    len(plan.Crashes),
		UplinkCuts:     len(plan.Partitions),
		GrayCPUWindows: len(plan.Slowdowns),
		GrayNICWindows: len(plan.Windows) / 2,

		Offered:          seq.res.Offered,
		Completed:        seq.res.Completed,
		Shed:             seq.res.Shed,
		Lost:             seq.res.Lost,
		CheckpointedLost: seq.res.CheckpointedLost,
		EvacRequests:     seq.res.EvacRequests,
		Migrations:       seq.res.Migrations,
		Checkpoints:      seq.res.Checkpoints,
		Restores:         seq.res.Restores,
		StaleLossEvents:  seq.res.Ckpt.StaleLossEvents,
		Deaths:           seq.st.Deaths,
		FalseSuspicions:  seq.st.FalseSuspicions,
		MakespanSec:      seq.res.Makespan,
		Phases:           stormPhases(seq.res, slo, spec.Start, spec.End),
		EnginesAgree:     agree,
	}
	for _, p := range res.Phases {
		cfg.printf("  %-9s offered=%3d done=%3d shed=%2d lost=%2d p50=%.4fs p99=%.4fs viol=%d (%.1f%%)\n",
			p.Phase, p.Offered, p.Completed, p.Shed, p.Lost, p.P50Sec, p.P99Sec, p.Violations, p.ViolationRate*100)
	}
	cfg.printf("  evac=%d mig=%d ckpt=%d restores=%d deaths=%d lost=%d engines=%v\n",
		res.EvacRequests, res.Migrations, res.Checkpoints, res.Restores, res.Deaths, res.Lost, res.EnginesAgree)
	if err := stormCheck(res, seq.res); err != nil {
		return res, err
	}
	return res, nil
}

// stormCheck verifies the run-level invariants that need the raw
// sequential result (the restore log); StormInvariantsHold covers
// everything reconstructible from the serialised StormResult.
func stormCheck(res *StormResult, seq *sched.OpenLoopResult) error {
	// No split-brain restore: each incarnation is restored at most once.
	seen := map[int]bool{}
	for _, rr := range seq.RestoreLog {
		if seen[rr.OldPid] {
			return fmt.Errorf("storm: pid %d restored twice (split-brain)", rr.OldPid)
		}
		seen[rr.OldPid] = true
	}
	return nil
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
	pre, storm, post := res.Phases[0], res.Phases[1], res.Phases[2]
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
	_ = pre
	return nil
}
