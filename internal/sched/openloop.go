package sched

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"heterodc/internal/ckpt"
	"heterodc/internal/kernel"
	"heterodc/internal/npb"
	"heterodc/internal/power"
	"heterodc/internal/traffic"
)

// OpenLoop is an arrival-driven workload: jobs are injected at their
// simulated arrival instants regardless of how many are already in flight
// (the warehouse traffic model), and every job's sojourn time is accounted
// against a latency SLO. Arrival stamps typically come from GenerateJobs
// with a traffic.Spacing hook.
type OpenLoop struct {
	Jobs []Job
	SLO  traffic.SLO
	// Degrade, when non-nil, arms graceful degradation: error-budget-driven
	// admission control, brownout placement away from degraded nodes and
	// proactive evacuation (see Degrade).
	Degrade *Degrade
}

// Job outcomes under graceful degradation.
const (
	// OutcomeCompleted: the job ran to completion (the only outcome
	// without a Degrade config).
	OutcomeCompleted = "completed"
	// OutcomeShed: admission control dropped the arrival to protect the
	// SLO error budget.
	OutcomeShed = "shed"
	// OutcomeLost: the job was killed by a failure and could not be
	// restored (Degrade.TolerateLoss accepted the loss).
	OutcomeLost = "lost"
)

// JobLatency is one job's latency decomposition and fate.
type JobLatency struct {
	ID int `json:"id"`
	// Node is the first placement (-1 for a shed arrival).
	Node       int     `json:"node"`
	Priority   int     `json:"priority"`
	ArrivalSec float64 `json:"arrival_sec"`
	ExitSec    float64 `json:"exit_sec"`
	// SojournSec is exit - arrival: admission queueing + service +
	// migration delay, the quantity the SLO binds. Zero for shed/lost jobs
	// (they are not SLO samples).
	SojournSec float64 `json:"sojourn_sec"`
	// Migrations and MigrationSec count the job's thread migrations and the
	// modelled transformation latency they paid.
	Migrations   int     `json:"migrations"`
	MigrationSec float64 `json:"migration_sec"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
}

// OpenLoopResult extends Result with SLO accounting.
type OpenLoopResult struct {
	Result
	Offered   int
	Completed int
	// Shed counts arrivals dropped by admission control; Lost counts jobs
	// killed by failures and accepted as lost (both zero without Degrade).
	Shed int
	Lost int
	// CheckpointedLost counts lost jobs that had a checkpoint image — a
	// restore should have saved them, so any nonzero value is an invariant
	// breach the storm experiment asserts on.
	CheckpointedLost int
	// EvacRequests counts proactive-evacuation migration requests issued
	// off degraded nodes (including retries).
	EvacRequests int
	// ThroughputJobsPerSec is completions over the horizon (the makespan).
	ThroughputJobsPerSec float64
	// SLO is the latency report: exact p50/p95/p99, violations, budget.
	// Only completed jobs are samples.
	SLO traffic.Report
	// Jobs holds the per-job records in ID order.
	Jobs []JobLatency
	// Ckpt and RestoreLog surface the checkpoint service's counters and
	// per-restore records (zero/nil without a checkpoint policy) — the
	// storm study's split-brain invariants are checked against them.
	Ckpt       ckpt.Stats
	RestoreLog []ckpt.RestoreRecord

	fingerprint string
}

// Fingerprint is a full-bit-precision digest of every engine-reproducible
// observable: per-job placement and timing, migration counts and the SLO
// report. The sequential and parallel engines must produce identical
// fingerprints for the same workload (energy is excluded: the meter
// integrates the same power over different interval boundaries, so its
// totals agree only up to float association).
func (r *OpenLoopResult) Fingerprint() string { return r.fingerprint }

// jobDriver is the one job driver: a kernel.TimerSource that admits jobs,
// sweeps completions and runs rebalance ticks, all in engine context so both
// time engines reproduce the same schedule byte-for-byte. Who admits the
// next job is one predicate (admitAt): open loop, the head of the queue
// starts at its arrival instant; closed loop (conc > 0), it starts whenever
// fewer than conc jobs are in flight and arrival stamps are ignored.
type jobDriver struct {
	r       *Runner
	st      *State
	mgr     *ckpt.Manager
	pending []Job
	conc    int
	acct    *traffic.Accountant
	byProc  map[*kernel.Process]*JobLatency
	jobs    []JobLatency
	done    int
	nextReb float64
	err     error

	// Graceful-degradation state (nil deg leaves every path above intact).
	deg      *Degrade
	ctlEvery float64
	nextCtl  float64
	cutoff   int // arrivals with Priority < cutoff are shed
	shed     int
	lost     int
	ckptLost int
	evacReqs int
}

// olInf mirrors the engine's "never" time.
const olInf = 1e30

// admitAt is the admission rule: the instant the head of the queue may
// start, or olInf. Under the closed-loop rule a free slot is due at once
// (the engine fires a past-due timer at node 0's clock).
func (d *jobDriver) admitAt() float64 {
	switch {
	case len(d.pending) == 0:
		return olInf
	case d.conc == 0:
		return d.pending[0].Arrival
	case len(d.st.Active) < d.conc:
		return 0
	}
	return olInf
}

func (d *jobDriver) NextDue() float64 {
	if d.err != nil {
		return olInf
	}
	t := d.admitAt()
	if d.r.Policy.Dynamic() && len(d.st.Active) > 0 && d.nextReb < t {
		t = d.nextReb
	}
	if d.deg != nil && (len(d.pending) > 0 || len(d.st.Active) > 0) && d.nextCtl < t {
		t = d.nextCtl
	}
	return t
}

func (d *jobDriver) Fire(now float64) {
	if d.err != nil {
		return
	}
	d.retire()
	if d.deg != nil && now >= d.nextCtl {
		d.controlTick(now)
		d.nextCtl = now + d.ctlEvery
	}
	for d.admitAt() <= now {
		j := d.pending[0]
		d.pending = d.pending[1:]
		if d.deg != nil && j.Priority < d.cutoff {
			d.jobs[j.ID] = JobLatency{
				ID: j.ID, Node: -1, Priority: j.Priority,
				ArrivalSec: j.Arrival, Outcome: OutcomeShed,
			}
			d.shed++
			continue
		}
		if err := d.admit(j, now); err != nil {
			d.err = err
			return
		}
	}
	if d.r.Policy.Dynamic() && len(d.st.Active) > 0 && now >= d.nextReb {
		d.st.Now = now
		rebalance(d.st, d.r.Policy, d.r.Cooldown)
		d.nextReb = now + d.r.RebalanceEvery
	}
}

// admit builds, places and spawns one job.
func (d *jobDriver) admit(j Job, now float64) error {
	img, err := npb.Build(j.Bench, j.Class, j.Threads)
	if err != nil {
		return err
	}
	node := place(d.st, d.r.Policy, j.Threads)
	p, err := d.st.Cluster.Spawn(img, node)
	if err != nil {
		return err
	}
	if d.mgr != nil {
		d.mgr.Track(p, img, d.r.Checkpoint)
	}
	d.st.Active = append(d.st.Active, &JobRun{
		Job: j, Proc: p, Node: node, lastMove: now, evacFrom: -1,
	})
	d.jobs[j.ID] = JobLatency{ID: j.ID, Node: node, Priority: j.Priority, ArrivalSec: j.Arrival}
	d.byProc[p] = &d.jobs[j.ID]
	return nil
}

// retire sweeps completed jobs out of the active set and accounts their
// latencies. Timestamps come from the kernel's exit instants, so it is
// harmless that the sweep itself runs at event (or step) granularity.
func (d *jobDriver) retire() {
	live := d.st.Active[:0]
	for _, jr := range d.st.Active {
		exited, _ := jr.Proc.Exited()
		if !exited {
			live = append(live, jr)
			continue
		}
		if err := jr.Proc.Err(); err != nil {
			if d.deg != nil && d.deg.TolerateLoss {
				// The job was killed by a failure and no restore replaced it
				// (a restore re-homes jr.Proc before the error ever surfaces
				// here). Account it lost instead of failing the run.
				jl := d.byProc[jr.Proc]
				delete(d.byProc, jr.Proc)
				jl.ExitSec = jr.Proc.ExitTime()
				jl.Outcome = OutcomeLost
				d.lost++
				if d.mgr != nil && d.mgr.LatestImage(jr.Proc) != nil {
					d.ckptLost++
				}
				continue
			}
			d.err = fmt.Errorf("sched: job %d (%s.%s) failed: %w",
				jr.Job.ID, jr.Job.Bench, jr.Job.Class, err)
			live = append(live, jr)
			continue
		}
		jl := d.byProc[jr.Proc]
		delete(d.byProc, jr.Proc)
		jl.ExitSec = jr.Proc.ExitTime()
		jl.SojournSec = jl.ExitSec - jl.ArrivalSec
		jl.Outcome = OutcomeCompleted
		d.acct.Observe(jl.SojournSec)
		d.done++
	}
	clear(d.st.Active[len(live):]) // exited jobs must not pin their processes
	d.st.Active = live
}

// RunOpenLoop executes an open-loop workload to completion. Admission and
// rebalancing are driven through the cluster's timer-event hookup, so the
// whole run — placements, migrations, exits and the SLO report — is
// byte-identical under the sequential and parallel engines (every firing is
// a control event, a window barrier; see kernel/timer.go).
func (r *Runner) RunOpenLoop(w OpenLoop) (*OpenLoopResult, error) {
	return r.drive(w, 0)
}

// drive runs w under the admission rule conc selects (see jobDriver).
func (r *Runner) drive(w OpenLoop, conc int) (*OpenLoopResult, error) {
	if len(w.Jobs) == 0 {
		return nil, fmt.Errorf("sched: workload has no jobs")
	}
	acct, err := traffic.NewAccountant(w.SLO)
	if err != nil {
		return nil, err
	}
	cl := r.Cluster
	meter := power.NewMeter(cl, r.Models)
	st := &State{Cluster: cl}

	pending := append([]Job(nil), w.Jobs...)
	if conc == 0 {
		sort.SliceStable(pending, func(i, j int) bool { return pending[i].Arrival < pending[j].Arrival })
	}
	for i, j := range pending {
		if j.ID < 0 || j.ID >= len(pending) {
			return nil, fmt.Errorf("sched: job %d has ID %d outside [0, %d)", i, j.ID, len(pending))
		}
		if conc == 0 && j.Arrival < 0 {
			return nil, fmt.Errorf("sched: job %d arrives at negative time %g", j.ID, j.Arrival)
		}
	}

	d := &jobDriver{
		r: r, st: st, pending: pending, conc: conc, acct: acct,
		byProc:  make(map[*kernel.Process]*JobLatency),
		jobs:    make([]JobLatency, len(pending)),
		nextReb: r.RebalanceEvery,
	}
	if w.Degrade != nil {
		deg := w.Degrade.withDefaults(r)
		d.deg = &deg
		d.ctlEvery = deg.TickEvery
		d.nextCtl = deg.TickEvery
		if deg.Health != nil {
			// Brownout: placement and rebalancing steer away from nodes the
			// health layer marks degraded.
			st.Avoid = deg.Health.Degraded
		}
	}
	if r.Checkpoint.EveryPoints > 0 || r.Checkpoint.EverySeconds > 0 {
		d.mgr = ckpt.NewManager(cl)
		d.mgr.OnRestore = func(old, cur *kernel.Process, node int) {
			// Re-home the bookkeeping onto the restored incarnation so the
			// completion sweep follows it.
			for _, jr := range st.Active {
				if jr.Proc == old {
					jr.Proc = cur
					jr.Node = node
					jr.lastMove = cl.Time()
				}
			}
			if jl, ok := d.byProc[old]; ok {
				delete(d.byProc, old)
				d.byProc[cur] = jl
			}
		}
	}

	migrations := 0
	cl.OnMigration = func(ev kernel.MigrationEvent) {
		migrations++
		for p, jl := range d.byProc {
			if p.Pid == ev.Pid {
				jl.Migrations++
				jl.MigrationSec += ev.XformSeconds
				break
			}
		}
		// A completed migration acknowledges any in-flight evacuation of
		// the job (the retry loop stops re-requesting it).
		for _, jr := range st.Active {
			if jr.Proc.Pid == ev.Pid && jr.evacFrom >= 0 {
				jr.evacFrom = -1
			}
		}
	}

	cl.SetTimerSource(d)
	defer cl.SetTimerSource(nil)
	for d.err == nil && d.done+d.shed+d.lost < len(pending) && cl.Step() {
		// Between Steps the driver holds control, so NextDue may move (the
		// TimerSource contract). Closed loop: sweep now, so a freed slot is
		// due at once and the run ends at the step that saw the last exit.
		// Open loop: completions wait for the next firing, and are swept
		// here only when no firing is left to notice them — other control
		// events (SWIM probes) would otherwise keep Step true forever.
		if conc > 0 || d.NextDue() >= olInf {
			d.retire()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.done+d.shed+d.lost != len(pending) {
		return nil, fmt.Errorf("sched: run drained with %d/%d jobs unaccounted",
			len(pending)-d.done-d.shed-d.lost, len(pending))
	}

	// The horizon is the last exit instant, not cl.Time(): the outer Step
	// loop notices completion at engine granularity (quantum vs epoch), the
	// kernel exits at the same instant under both.
	horizon := 0.0
	for i := range d.jobs {
		if d.jobs[i].ExitSec > horizon {
			horizon = d.jobs[i].ExitSec
		}
	}

	res := &OpenLoopResult{
		Result: Result{
			Policy:     r.Policy.Name(),
			Makespan:   horizon,
			EnergyCPU:  meter.EnergyCPU(),
			Migrations: migrations,
		},
		Offered:          len(pending),
		Completed:        d.done,
		Shed:             d.shed,
		Lost:             d.lost,
		CheckpointedLost: d.ckptLost,
		EvacRequests:     d.evacReqs,
		SLO:              acct.Report(),
		Jobs:             d.jobs,
	}
	for _, e := range res.EnergyCPU {
		res.EnergyTotal += e
	}
	res.EDP = res.EnergyTotal * res.Makespan
	if res.Makespan > 0 {
		res.ThroughputJobsPerSec = float64(res.Completed) / res.Makespan
	}
	if d.mgr != nil {
		ms := d.mgr.Stats()
		res.Checkpoints = ms.ImagesWritten
		res.Restores = ms.Restores
		res.Ckpt = ms
		res.RestoreLog = d.mgr.Restores()
	}
	res.fingerprint = openLoopFingerprint(res)
	return res, nil
}

// openLoopFingerprint digests every engine-reproducible observable at full
// bit precision.
func openLoopFingerprint(res *OpenLoopResult) string {
	var b strings.Builder
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	fmt.Fprintf(&b, "policy=%s;jobs=%d;shed=%d;lost=%d;evac=%d;mig=%d;makespan=%016x;",
		res.Policy, res.Completed, res.Shed, res.Lost, res.EvacRequests, res.Migrations, bits(res.Makespan))
	for i := range res.Jobs {
		j := &res.Jobs[i]
		fmt.Fprintf(&b, "j%d:n%d:p%d:%s:a%016x:e%016x:m%d:x%016x;",
			j.ID, j.Node, j.Priority, j.Outcome, bits(j.ArrivalSec), bits(j.ExitSec), j.Migrations, bits(j.MigrationSec))
	}
	s := res.SLO
	fmt.Fprintf(&b, "p50=%016x;p95=%016x;p99=%016x;mean=%016x;max=%016x;viol=%d;",
		bits(s.P50Sec), bits(s.P95Sec), bits(s.P99Sec), bits(s.MeanSec), bits(s.MaxSec), s.Violations)
	return b.String()
}
