package sched

// This file is the open-loop driver's graceful-degradation control loop:
// SLO-error-budget-driven admission control (shed the lowest priorities
// while the budget burns, ramp back one level per healthy tick after the
// heal), brownout placement away from degraded nodes, and proactive
// evacuation of running jobs with per-job retry/timeout/capped-backoff
// on the migration itself. Everything here executes inside the driver's
// timer firings, so both time engines reproduce the same decisions
// byte-for-byte (a timer firing is a control event, a window barrier).

// HealthSource is the scheduler's view of a node-health layer (see
// member.Monitor). Tick is called from engine context at the control
// period; Degraded must be pure between ticks.
type HealthSource interface {
	Tick(now float64)
	Degraded(node int) bool
}

// Degrade configures graceful degradation for RunOpenLoop. The zero
// value of each field resolves to the default noted on it.
type Degrade struct {
	// Health scores nodes; nil disables brownout placement and
	// evacuation (admission control still works from the SLO budget).
	Health HealthSource
	// TickEvery is the control-loop period in seconds (default: the
	// runner's RebalanceEvery).
	TickEvery float64
	// Levels is the number of priority levels in the workload; the shed
	// cutoff saturates at Levels-1 so the top level is never shed
	// (default 1: nothing sheddable).
	Levels int
	// ShedBelow: when the SLO error-budget fraction remaining falls below
	// this, the cutoff rises one level per tick (default 0.25).
	ShedBelow float64
	// RecoverAbove: when the budget fraction is at or above this, the
	// cutoff ramps back down one level per tick — the recovery ramp
	// (default 0.5).
	RecoverAbove float64
	// EvacRetries bounds migration attempts per evacuation episode; an
	// episode that exhausts them times out and leaves the job where it is
	// (its checkpoints remain the fallback). Default 3.
	EvacRetries int
	// EvacBackoff is the delay before re-issuing an unacknowledged
	// evacuation migration; it doubles per retry up to EvacBackoffCap.
	// Defaults: TickEvery and 8*EvacBackoff.
	EvacBackoff    float64
	EvacBackoffCap float64
	// TolerateLoss accepts unrestorable job kills as OutcomeLost instead
	// of failing the run (shed+completed+lost == offered stays the
	// accounting identity).
	TolerateLoss bool
}

// withDefaults resolves the zero values against the runner.
func (g Degrade) withDefaults(r *Runner) Degrade {
	if g.TickEvery <= 0 {
		g.TickEvery = r.RebalanceEvery
	}
	if g.Levels <= 0 {
		g.Levels = 1
	}
	if g.ShedBelow == 0 {
		g.ShedBelow = 0.25
	}
	if g.RecoverAbove == 0 {
		g.RecoverAbove = 0.5
	}
	if g.EvacRetries <= 0 {
		g.EvacRetries = 3
	}
	if g.EvacBackoff <= 0 {
		g.EvacBackoff = g.TickEvery
	}
	if g.EvacBackoffCap <= 0 {
		g.EvacBackoffCap = 8 * g.EvacBackoff
	}
	return g
}

// controlTick runs one degradation control round: refresh health scores,
// adjust the admission cutoff from the SLO error budget, and drive
// evacuations off degraded nodes.
func (d *jobDriver) controlTick(now float64) {
	if h := d.deg.Health; h != nil {
		h.Tick(now)
	}
	rem := d.acct.BudgetRemaining()
	if rem < d.deg.ShedBelow {
		if d.cutoff < d.deg.Levels-1 {
			d.cutoff++
		}
	} else if rem >= d.deg.RecoverAbove && d.cutoff > 0 {
		d.cutoff--
	}
	if d.deg.Health != nil {
		d.evacuate(now)
	}
}

// evacuate sweeps the active set for jobs on degraded nodes and requests
// migrations off them. A request is only an intent — the thread must
// reach a migration point, the transfer can abort and roll back — so the
// episode is acknowledged by the cluster's migration event (see
// drive's OnMigration hook clearing evacFrom) and re-requested
// with doubled, capped backoff until it lands or EvacRetries attempts
// time the episode out.
func (d *jobDriver) evacuate(now float64) {
	h := d.deg.Health
	for _, jr := range d.st.Active {
		if jr.evacFrom < 0 {
			if !h.Degraded(jr.Node) || d.st.Cluster.NodeUnavailable(jr.Node) {
				continue // healthy, or fail-stopped (the detector's job)
			}
			jr.evacFrom = jr.Node
			jr.evacAttempts = 0
			jr.evacBackoff = d.deg.EvacBackoff
			jr.evacNext = now
		}
		if now < jr.evacNext {
			continue
		}
		if jr.evacAttempts >= d.deg.EvacRetries {
			// Timeout: abandon the episode; a later tick may open a new one
			// if the job is still stuck on a degraded node.
			jr.evacFrom = -1
			continue
		}
		dst := d.evacTarget(jr)
		if dst < 0 {
			// Nowhere healthy to go; hold position and retry after backoff.
			jr.evacAttempts++
			jr.evacNext = now + jr.evacBackoff
			jr.evacBackoff = minf(2*jr.evacBackoff, d.deg.EvacBackoffCap)
			continue
		}
		d.st.Cluster.RequestProcessMigration(jr.Proc, dst)
		d.evacReqs++
		jr.Node = dst
		jr.lastMove = now
		jr.evacAttempts++
		jr.evacNext = now + jr.evacBackoff
		jr.evacBackoff = minf(2*jr.evacBackoff, d.deg.EvacBackoffCap)
	}
}

// evacTarget picks the least-loaded healthy destination for an
// evacuating job, or -1 when none exists.
func (d *jobDriver) evacTarget(jr *JobRun) int {
	h := d.deg.Health
	w := d.r.Policy.Weights(d.st)
	best, bestScore := -1, 1e30
	for n := range d.st.Cluster.Kernels {
		if n == jr.evacFrom || w[n] <= 0 || d.st.Cluster.NodeUnavailable(n) || h.Degraded(n) {
			continue
		}
		score := (float64(d.st.ThreadsOn(n)) + float64(jr.Job.Threads)) / w[n]
		if score < bestScore {
			best, bestScore = n, score
		}
	}
	return best
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
