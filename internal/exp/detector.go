package exp

import (
	"bytes"
	"fmt"

	"heterodc/internal/core"
	"heterodc/internal/fault"
	"heterodc/internal/kernel"
	"heterodc/internal/member"
)

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

// detectorScenarios are one heartbeat period's two runs: a permanent
// node-1 crash and a transient outage that outlives the detector's
// patience. The job is spawned ON the failing node, so the death verdict
// strands real state (origin authority, threads and pages) without a
// mid-run bulk migration congesting the fabric — at millisecond-scale
// runtimes a container transfer starves the heartbeat channel long enough
// to fake a death by itself.
func detectorScenarios(b bench, seed int64, frac float64) []Scenario {
	ref := b.ref.Seconds
	crashAt := 0.55 * ref
	mcfg := member.Config{HeartbeatPeriod: frac * ref}
	// Detection needs ~10 periods of silence (suspicion timeout plus the
	// capped backoff re-checks); a 15-period outage is a guaranteed false
	// positive.
	outage := 15 * mcfg.HeartbeatPeriod
	scs := []Scenario{
		{Name: "perm", Faults: fault.Plan{
			Seed:    seed,
			Crashes: []fault.Crash{{Node: 1, At: crashAt, RecoverAt: 0}},
		}},
		{Name: "transient", Faults: fault.Plan{
			Seed:    seed + 100,
			Crashes: []fault.Crash{{Node: 1, At: crashAt, RecoverAt: crashAt + outage}},
		}},
	}
	for i := range scs {
		// The counters are read at an absolute instant past every exit,
		// which is the same on both engines; the instant the job loop
		// notices the exit is not.
		scs[i].Member, scs[i].Trace, scs[i].Settle = &mcfg, true, 10*ref
		scs[i].Ckpt = kernel.CkptPolicy{EverySeconds: 0.08 * ref}
		scs[i].Img, scs[i].JobNodes = b.img, []int{core.NodeARM}
	}
	return scs
}

// detectorRow reads one run of a detector scenario. A job that did not
// reach a clean exit is counted stranded rather than aborting the study,
// so the row (and the zero-stranded check) carries the failure.
func detectorRow(b bench, name string, out *Rig) DetectorRow {
	final, stranded := out.Jobs[0], 0
	if final.Err() != nil {
		stranded = 1
	}
	_, code := final.Exited()
	svc, st, cs := out.Svc, out.Svc.Stats(), out.Mgr.Stats()
	fenced, stale := out.Cl.FenceStats()
	row := DetectorRow{
		Bench:           b.name,
		Scenario:        name,
		HeartbeatPeriod: svc.Config().HeartbeatPeriod,
		SuspectTimeout:  svc.Config().SuspectTimeout,
		Base:            b.ref.Seconds, Seconds: final.ExitTime(),
		ExitOK:           code == 0 && stranded == 0,
		OutputMatch:      stranded == 0 && bytes.Equal(final.Output(), b.ref.Output),
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
		TraceDropped:     out.Log.Dropped(),
	}
	if ds := svc.Deaths(); len(ds) > 0 {
		row.DetectionLatency = ds[0].At - out.Plan.Crashes[0].At
	}
	return row
}

// Detector sweeps the heartbeat period and reports how detection latency,
// false-positive handling and recovery cost move with it: shorter leases
// detect faster (less work lost waiting) but spend more heartbeat traffic
// and suspect more eagerly. Each period runs a permanent node-1 crash
// (detection must trigger a checkpoint restore) and a transient outage
// tuned to outlive the detector's patience (the declaration is a false
// positive the rejoining node must refute via its bumped incarnation).
// Every run must end with zero stranded jobs and zero un-fenced
// stale-incarnation messages, and both engines must give the same rows.
func Detector(cfg Config) ([]DetectorRow, error) {
	fracs := cfg.PeriodFracs
	if len(fracs) == 0 {
		fracs = []float64{1.0 / 80, 1.0 / 40, 1.0 / 20}
	}
	benches, err := cfg.chaosBenches()
	if err != nil {
		return nil, err
	}
	var rows []DetectorRow
	for _, b := range benches {
		cfg.printf("%s baseline: %.4fs\n", b.name, b.ref.Seconds)
		for i, frac := range fracs {
			for _, sc := range detectorScenarios(b, cfg.Seed+int64(i), frac) {
				outs, err := sc.runBoth()
				var per [2]DetectorRow
				if err == nil {
					per = [2]DetectorRow{detectorRow(b, sc.Name, outs[0]), detectorRow(b, sc.Name, outs[1])}
					if per[0] != per[1] {
						err = fmt.Errorf("engines diverge:\nseq %+v\npar %+v", per[0], per[1])
					}
				}
				if err != nil {
					return nil, fmt.Errorf("exp: detector %s %s: %w", b.name, sc.Name, err)
				}
				row := per[0]
				rows = append(rows, row)
				cfg.printf("  hb=%.2gms %-9s detect=%.2gms deaths=%d falsepos=%d restores=%d replayed=%.4fs hbsent=%d fenced=%d/%d exit=%v match=%v\n",
					row.HeartbeatPeriod*1e3, sc.Name, row.DetectionLatency*1e3,
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
