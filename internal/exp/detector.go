package exp

import (
	"bytes"
	"fmt"

	"heterodc/internal/ckpt"
	"heterodc/internal/core"
	"heterodc/internal/fault"
	"heterodc/internal/kernel"
	"heterodc/internal/member"
	"heterodc/internal/npb"
	"heterodc/internal/trace"
)

// DetectorOptions parameterises the failure-detector study.
type DetectorOptions struct {
	// Seed selects the deterministic fault streams.
	Seed int64
	// PeriodFracs are the heartbeat periods to sweep, as fractions of the
	// fault-free runtime. Empty means {1/80, 1/40, 1/20}.
	PeriodFracs []float64
}

// DetectorRow reports one benchmark under one heartbeat period and one
// crash scenario, with the detector (not the oracle) driving recovery.
type DetectorRow struct {
	Bench string
	// Scenario is "perm" (node 1 never returns) or "transient" (node 1
	// returns after the detector has already declared it dead — a false
	// positive the rejoin must refute).
	Scenario string
	// HeartbeatPeriod and SuspectTimeout are the detector configuration.
	HeartbeatPeriod, SuspectTimeout float64
	// Base is the fault-free runtime; Seconds the runtime under the plan.
	Base, Seconds float64
	ExitOK        bool
	OutputMatch   bool
	// DetectionLatency is the gap between the physical crash and the first
	// death declaration — the window where stale placement decisions live.
	DetectionLatency float64
	// Detector counters for the run.
	HeartbeatsSent, HeartbeatsFenced uint64
	Suspicions, FalseSuspicions      uint64
	Deaths                           uint64
	// Checkpoint-recovery counters: work lost to the failure is what the
	// restore replays plus the detection latency spent waiting.
	Restores     int
	WorkReplayed float64
	// Fence counters: messages dropped for addressing the dead incarnation,
	// and stale-incarnation deliveries that escaped the fence (must be 0).
	MessagesFenced, StaleUnfenced uint64
	// Stranded counts tracked jobs that did not reach a clean exit (must
	// be 0: every job ends restored or refuted, never abandoned).
	Stranded int
	// TraceDropped counts trace events the run's bounded ring discarded —
	// non-zero means the event log above is incomplete.
	TraceDropped int
}

// runDetectorOnce executes a benchmark under plan with the SWIM detector
// installed and checkpoint-based recovery armed. The job is spawned ON the
// failing node, so the death verdict strands real state (origin authority,
// threads and pages) without a mid-run bulk migration congesting the fabric
// — at millisecond-scale benchmark runtimes a container transfer starves
// the heartbeat channel long enough to fake a death all by itself. The run
// ends when the job's final incarnation exits; detection latency is read
// from the detector's death records against the plan's crash time.
func runDetectorOnce(cfg Config, b npb.Bench, k npb.Class, plan fault.Plan,
	pol kernel.CkptPolicy, mcfg member.Config) (
	*core.Result, *member.Service, ckpt.Stats, *kernel.Cluster, *trace.EventLog, error) {
	img, err := npb.Build(b, k, 1)
	if err != nil {
		return nil, nil, ckpt.Stats{}, nil, nil, err
	}
	cl := core.NewTestbed()
	// The SWIM detector is group-local while quiet, so the parallel engine
	// keeps sharing groups concurrent between protocol actions and collapses
	// only around the crash and its suspicion machinery; results are
	// byte-identical either way.
	if err := UseEngine(cl, cfg.Engine); err != nil {
		return nil, nil, ckpt.Stats{}, nil, nil, err
	}
	cl.InjectFaults(plan)
	log := trace.NewEventLog(4096)
	cl.SetTracer(log)
	mgr := ckpt.NewManager(cl)
	svc, err := member.Attach(cl, mcfg)
	if err != nil {
		return nil, nil, ckpt.Stats{}, nil, nil, err
	}
	p, err := cl.Spawn(img, core.NodeARM)
	if err != nil {
		return nil, nil, ckpt.Stats{}, nil, nil, err
	}
	mgr.Track(p, img, pol)
	for {
		cur := mgr.Current(p)
		if exited, _ := cur.Exited(); exited {
			if mgr.Current(p) != cur {
				continue
			}
			break
		}
		if !cl.Step() {
			return nil, nil, ckpt.Stats{}, nil, nil,
				fmt.Errorf("exp: detector: cluster drained before %s.%s exited", b, k)
		}
	}
	final := mgr.Current(p)
	if err := final.Err(); err != nil {
		return nil, svc, mgr.Stats(), cl, log,
			fmt.Errorf("exp: detector: %s.%s stranded despite detector + recovery: %w", b, k, err)
	}
	_, code := final.Exited()
	res := &core.Result{ExitCode: code, Output: final.Output(), Seconds: cl.Time()}
	for tid := int64(0); ; tid++ {
		t := final.Thread(tid)
		if t == nil {
			break
		}
		res.Migrations += t.Migrations
	}
	return res, svc, mgr.Stats(), cl, log, nil
}

// Detector sweeps the heartbeat period and reports how detection latency,
// false-positive handling and recovery cost move with it: shorter leases
// detect faster (less work lost waiting) but spend more heartbeat traffic
// and suspect more eagerly. Each period runs a permanent node-1 crash
// (detection must trigger a checkpoint restore) and a transient outage
// tuned to outlive the detector's patience (the declaration is a false
// positive the rejoining node must refute via its bumped incarnation).
// Every run must end with zero stranded jobs and zero un-fenced
// stale-incarnation messages.
func Detector(cfg Config, opts DetectorOptions) ([]DetectorRow, error) {
	fracs := opts.PeriodFracs
	if len(fracs) == 0 {
		fracs = []float64{1.0 / 80, 1.0 / 40, 1.0 / 20}
	}
	var rows []DetectorRow
	for _, bk := range cfg.chaosBenches() {
		img, err := npb.Build(bk.b, bk.k, 1)
		if err != nil {
			return nil, fmt.Errorf("exp: detector build %s.%s: %w", bk.b, bk.k, err)
		}
		ref, err := core.Run(img, core.NodeX86)
		if err != nil {
			return nil, fmt.Errorf("exp: detector baseline %s.%s: %w", bk.b, bk.k, err)
		}
		cfg.printf("%s.%s baseline: %.4fs\n", bk.b, bk.k, ref.Seconds)
		crashAt := 0.55 * ref.Seconds
		pol := kernel.CkptPolicy{EverySeconds: 0.08 * ref.Seconds}
		for i, frac := range fracs {
			mcfg := member.Config{HeartbeatPeriod: frac * ref.Seconds}
			// Detection needs ~10 periods of silence (suspicion timeout plus
			// the capped backoff re-checks); a 15-period outage is a
			// guaranteed false positive.
			outage := 15 * mcfg.HeartbeatPeriod
			scenarios := []struct {
				name string
				plan fault.Plan
			}{
				{"perm", fault.Plan{
					Seed:    opts.Seed + int64(i),
					Crashes: []fault.Crash{{Node: 1, At: crashAt, RecoverAt: 0}},
				}},
				{"transient", fault.Plan{
					Seed:    opts.Seed + int64(i) + 100,
					Crashes: []fault.Crash{{Node: 1, At: crashAt, RecoverAt: crashAt + outage}},
				}},
			}
			for _, sc := range scenarios {
				res, svc, cs, cl, log, err := runDetectorOnce(cfg, bk.b, bk.k, sc.plan, pol, mcfg)
				stranded := 0
				if err != nil {
					if res == nil && svc == nil {
						return nil, err
					}
					// The job did not reach a clean exit: count it stranded
					// rather than aborting the study, so the row (and the
					// caller's zero-stranded assertion) carries the failure.
					stranded = 1
					res = &core.Result{ExitCode: -1}
				}
				st := svc.Stats()
				fenced, stale := cl.FenceStats()
				row := DetectorRow{
					Bench:           fmt.Sprintf("%s.%s", bk.b, bk.k),
					Scenario:        sc.name,
					HeartbeatPeriod: svc.Config().HeartbeatPeriod,
					SuspectTimeout:  svc.Config().SuspectTimeout,
					Base:            ref.Seconds, Seconds: res.Seconds,
					ExitOK:           res.ExitCode == 0 && stranded == 0,
					OutputMatch:      bytes.Equal(res.Output, ref.Output),
					HeartbeatsSent:   st.HeartbeatsSent,
					HeartbeatsFenced: st.HeartbeatsFenced,
					Suspicions:       st.Suspicions,
					FalseSuspicions:  st.FalseSuspicions,
					Deaths:           st.Deaths,
					Restores:         cs.Restores,
					WorkReplayed:     cs.WorkReplayedSeconds,
					MessagesFenced:   fenced,
					StaleUnfenced:    stale,
					Stranded:         stranded,
				}
				if ds := svc.Deaths(); len(ds) > 0 {
					row.DetectionLatency = ds[0].At - crashAt
				}
				if log != nil {
					row.TraceDropped = log.Dropped()
				}
				rows = append(rows, row)
				cfg.printf("  hb=%.2gms %-9s detect=%.2gms deaths=%d falsepos=%d restores=%d replayed=%.4fs hbsent=%d fenced=%d/%d exit=%v match=%v\n",
					row.HeartbeatPeriod*1e3, sc.name, row.DetectionLatency*1e3,
					row.Deaths, row.FalseSuspicions, row.Restores, row.WorkReplayed,
					row.HeartbeatsSent, row.MessagesFenced, row.StaleUnfenced,
					row.ExitOK, row.OutputMatch)
			}
		}
	}
	dropped := 0
	for _, r := range rows {
		dropped += r.TraceDropped
	}
	if dropped > 0 {
		cfg.printf("trace: %d events dropped across runs (bounded rings overflowed; logs above are incomplete)\n", dropped)
	}
	return rows, nil
}

// DetectorShapeHolds checks that every crash was detected by silence with
// no job stranded and no stale message unfenced, and that at least one
// transient outage exercised the false-positive (refutation) path.
func DetectorShapeHolds(rows []DetectorRow) error {
	refuted := false
	for _, r := range rows {
		if !r.ExitOK || !r.OutputMatch || r.Stranded != 0 || r.StaleUnfenced != 0 {
			return fmt.Errorf("detector: %s %s hb=%g stranded a job, leaked a stale message or lost correctness (exit=%v match=%v stranded=%d unfenced=%d)",
				r.Bench, r.Scenario, r.HeartbeatPeriod, r.ExitOK, r.OutputMatch, r.Stranded, r.StaleUnfenced)
		}
		refuted = refuted || r.FalseSuspicions > 0
	}
	if !refuted {
		return fmt.Errorf("detector: no transient outage was ever refuted: the false-positive path went unexercised")
	}
	return nil
}
