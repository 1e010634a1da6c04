// Package sim is the cluster's time engine, extracted from internal/kernel:
// it decides which node acts next and when, while the model (the kernel
// cluster) supplies the domain semantics. Two interchangeable backends
// implement the same schedule:
//
//   - Sequential: the reference engine, one global min-ready-time rule —
//     exactly the rule the kernel package used to own.
//   - Parallel: a conservative (Chandy-Misra style) parallel discrete-event
//     engine. Nodes are partitioned into sharing groups — the connected
//     components of the "might interact" relation the model reports — and
//     each group replays its own restriction of the sequential schedule on
//     its own goroutine. Groups advance in bounded epochs with a barrier
//     between them; the barrier is where cross-group facts (spawns, group
//     membership, the time frontier) are re-established.
//
// Because a group's local schedule is exactly the global sequential
// schedule restricted to that group (ready times and tie-breaks are
// group-local), the parallel backend produces byte-identical results; see
// DESIGN.md §11 for the full argument.
//
// Both backends make every decision through one scheduling index (index.go)
// that re-reads only the nodes a model reports as changed (Feed); a model
// that reports nothing gets every node re-read after every action.
package sim

// Inf is the engine's "never" time. It mirrors the kernel's internal
// infinity so ready times round-trip unchanged.
const Inf = 1e30

// NegInf is the "collapse indefinitely" horizon: a model returns it from
// Horizon when a layer needs the global sequential order for the whole
// window (not just until a due instant), letting the engine run the window
// inline without re-polling the horizon after every action.
const NegInf = -1e30

// Model is the simulated system the engine schedules: a fixed set of nodes
// with local clocks, work, and scheduled control events (crash/recovery).
// internal/kernel's Cluster implements it.
type Model interface {
	// NumNodes returns the node count (fixed for the model's lifetime).
	NumNodes() int
	// ReadyTime returns when node can next make progress, or >= Inf.
	ReadyTime(node int) float64
	// StepNode advances node by one quantum of work.
	StepNode(node int)
	// SkipTo drags node's clock forward to t without work (no-op if t is in
	// the past).
	SkipTo(node int, t float64)
	// Now returns node's local clock.
	Now(node int) float64
	// NextWake returns node's earliest pending wake/delivery time, or >= Inf
	// (used to bound idle skips; a subset of what ReadyTime considers).
	NextWake(node int) float64

	// NextEvent returns the time of node's next scheduled control event
	// (crash or recovery), or >= Inf.
	NextEvent(node int) float64
	// ApplyEvent executes node's next scheduled control event.
	ApplyEvent(node int)

	// Frontier returns the global safe-time frontier (min node clock).
	Frontier() float64
	// NoteFrontier publishes the current frontier to observers. The engine
	// calls it only from the scheduling goroutine (sequentially or at a
	// barrier), never from group workers.
	NoteFrontier()

	// Groups partitions the nodes into disjoint sharing groups: two nodes
	// that could interact before the next barrier (messages, DSM peer
	// actions, migrations, checkpoints) must share a group. Each group and
	// the list itself are sorted ascending. Called only at barriers.
	Groups() [][]int
	// Horizon returns the earliest instant at which group-parallel
	// execution stops being sound for a reason other than a control event,
	// given that the next window starts at start. The engine itself ends
	// every grouped window at the next control event (the minimum NextEvent
	// over all nodes) and applies it in the exact sequential order, so a
	// model reports here only what NextEvent does not carry. A finite
	// horizon names such a hazard and the engine clamps the window to the
	// earlier of the two; a horizon <= start means the hazard is due right
	// now; NegInf means a layer needs the global order for the foreseeable
	// future (the kernel's one case: a membership service that is not
	// quiet). Horizon >= Inf adds no constraint. Called only at barriers.
	Horizon(start float64) float64
}

// Engine advances a Model through simulated time.
type Engine interface {
	// Step performs one unit of scheduling — a single node quantum (or
	// control event) on the sequential engine, one bounded epoch on the
	// parallel engine. It returns false when no node can ever progress.
	Step() bool
	// Run steps until the frontier reaches `until` or work drains, and
	// returns the frontier. Both backends leave the model in byte-identical
	// states for the same `until`.
	Run(until float64) float64
	// AdvanceTo skips every node's clock to t, bounded by pending wakes and
	// control events (which it applies). Used by workload drivers to model
	// idle gaps.
	AdvanceTo(t float64)
}

// stepResult classifies one sequential scheduling decision.
type stepResult int

const (
	stepNone  stepResult = iota // nothing can progress before the limit
	stepEvent                   // applied one control event
	stepWork                    // stepped one node quantum
)

// allNodes returns [0, n).
func allNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
