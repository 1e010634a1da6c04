package kernel

// The job-driver hookup: a TimerSource turns driver actions (job
// admissions, rebalance ticks) into cluster control events, fired at their
// exact simulated instants from engine context — the same mechanism that
// delivers crash schedules and membership rounds. A driver that acts only
// in firings acts only at engine-defined points and is byte-identical on
// both engines. What a driver learns by looking at the cluster between Step
// calls is quantum-grained under the sequential engine and epoch-grained
// under the parallel one: sched's closed-loop admission rule notices a
// freed slot that way, which is why sustained workloads place slightly
// differently per engine while open-loop ones do not.

// TimerSource schedules simulated-instant callbacks on the cluster.
type TimerSource interface {
	// NextDue returns the next due instant, or >= 1e30 when idle. It must
	// be pure, and its answer may change only inside Fire or while the
	// driver holds control (between Step/Run/AdvanceTo calls): the engine
	// re-reads it after every firing and at every driver entry, not while
	// choosing each action.
	NextDue() float64
	// Fire runs the action due at now. It executes in engine context (on
	// node 0's event stream) and may spawn processes, request migrations or
	// inspect cluster state; now is at least the due instant (a node whose
	// clock already passed it runs the action at the clock, never in the
	// past).
	Fire(now float64)
}

// SetTimerSource installs (or with nil removes) the cluster's timer source.
// The timer is anchored to node 0's event stream but its actions read
// global state (an arrival placement weighs every node's load). Like every
// control event a firing is a window barrier: the parallel engine ends the
// grouped window at the next due instant and consumes the firing in the
// exact sequential order, then fans back out. Between firings NextDue is pure
// and the timer holds no other engine-visible state, so groups still run
// concurrently and results stay byte-identical to the sequential
// reference.
func (cl *Cluster) SetTimerSource(ts TimerSource) {
	cl.timer = ts
	cl.changed(0)
}

// timerChanged reports that the timer's due instant (node 0's event time)
// may have moved: after a firing, and at every driver entry.
func (cl *Cluster) timerChanged() {
	if cl.timer != nil {
		cl.changed(0)
	}
}

// timerDueTime returns node's next timer instant, or inf. Only node 0
// carries timer events, which gives every firing one deterministic owner.
func (cl *Cluster) timerDueTime(node int) float64 {
	if cl.timer == nil || node != 0 {
		return inf
	}
	return cl.timer.NextDue()
}

// fireTimer runs the due timer action at node 0's clock.
func (cl *Cluster) fireTimer(due float64) {
	k := cl.Kernels[0]
	k.skipTo(due)
	cl.timer.Fire(k.now())
	cl.timerChanged()
}
