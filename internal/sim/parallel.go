package sim

import (
	"runtime"
	"sync"
)

// Options tunes the parallel engine.
type Options struct {
	// EpochSec is the barrier interval: each Step runs every sharing group
	// concurrently up to (first pending action + EpochSec), then
	// resynchronises. 0 selects DefaultEpochSec. Epoch length never changes
	// results — only how often groups are recomputed — because group
	// schedules are interleaving-invariant between barriers.
	EpochSec float64
	// LookaheadSec is the model's minimum cross-node interaction delay (the
	// interconnect's minimum link latency). It lower-bounds the effective
	// epoch: any shorter barrier interval would resynchronise more often
	// than information can propagate between nodes, pure overhead.
	LookaheadSec float64
}

// DefaultEpochSec is the default barrier interval (500 kernel quanta).
const DefaultEpochSec = 1e-3

// Parallel is the conservative parallel engine: a persistent pool of
// worker goroutines (sized to GOMAXPROCS at first fan-out) replays each
// sharing group's restriction of the sequential schedule between epoch
// barriers. Group membership is the model's conservative "might interact
// before the next barrier" relation and every window is clamped to the
// model's soundness horizon, so workers never contend on shared state and
// results are byte-identical to the Sequential engine.
type Parallel struct {
	m     Model
	nodes []int
	epoch float64

	// The worker pool, started lazily at the first multi-group window.
	pool     *pool
	active   [][]int // per-window scratch
	poolSize int     // 0 until the first fan-out sizes the pool
}

// pool is the engine's handle on its workers. They capture only the
// channel and the wait group — never the pool, the engine, or the model
// (which points back at the engine) — so a dropped engine becomes
// unreachable and the pool with it. The finalizer that closes the channel
// sits on the pool, not the engine: engine and model form a cycle, and the
// runtime never finalizes an object it can reach from itself.
type pool struct {
	work chan groupTask
	wg   *sync.WaitGroup
}

// groupTask is one group's share of a window, with the model to run it on.
type groupTask struct {
	m   Model
	g   []int
	end float64
}

// NewParallel builds the parallel engine over m.
func NewParallel(m Model, opt Options) *Parallel {
	ep := opt.EpochSec
	if ep <= 0 {
		ep = DefaultEpochSec
	}
	if opt.LookaheadSec > ep {
		ep = opt.LookaheadSec
	}
	return &Parallel{m: m, nodes: allNodes(m.NumNodes()), epoch: ep}
}

// runGroup replays one group's schedule up to limit on the caller's
// goroutine. The group's control events are applied by its own worker, so
// a crash inside the epoch only ever touches group-local state.
func runGroup(m Model, nodes []int, limit float64) {
	for stepOnce(m, nodes, limit) != stepNone {
	}
}

// Step runs one epoch: partition nodes into sharing groups, run each group
// concurrently up to the epoch end (clamped to the model's horizon), then
// barrier. Returns false when the whole model is drained.
func (e *Parallel) Step() bool {
	t0 := nextActionTime(e.m, e.nodes)
	if t0 >= Inf {
		return false
	}
	e.window(t0, t0+e.epoch)
	return true
}

// window runs one epoch starting at t0 bounded by end and performs the
// barrier work.
func (e *Parallel) window(t0, end float64) {
	m := e.m
	if hz := m.Horizon(t0); hz <= t0 {
		if hz <= NegInf {
			// Structural collapse: some layer needs the global order for the
			// whole window, so run it inline — exactly the sequential loop
			// restricted to nothing.
			runGroup(m, e.nodes, end)
		} else {
			// A point hazard (membership round, timer firing, crash event)
			// is due right now. Consume actions in the exact sequential
			// order until the horizon clears or the window drains; the next
			// window re-partitions and fans back out.
			for stepOnce(m, e.nodes, end) != stepNone {
				t1 := nextActionTime(m, e.nodes)
				if t1 >= end || m.Horizon(t1) > t1 {
					break
				}
			}
		}
	} else {
		if hz < end {
			// Clamp the window to the hazard: no membership round, timer
			// firing or crash event ever executes inside a grouped window
			// (stepOnce applies actions strictly before the limit).
			end = hz
		}
		groups := m.Groups()
		// Only groups with an action before the epoch end need a worker.
		// (Never filter in place: the slice belongs to the model.)
		e.active = e.active[:0]
		for _, g := range groups {
			if nextActionTime(m, g) < end {
				e.active = append(e.active, g)
			}
		}
		if len(e.active) == 1 {
			// Run inline: callbacks that re-enter the engine (checkpoint
			// managers driving Step from an observer) stay on one goroutine.
			runGroup(m, e.active[0], end)
		} else if len(e.active) > 1 {
			e.fanOut(end)
		}
	}
	// Barrier: drag drained nodes up to the fastest clock, exactly the final
	// value the sequential loop's per-step idle drag converges to, then
	// publish the frontier once for the whole epoch.
	maxNow := 0.0
	for _, n := range e.nodes {
		if t := m.Now(n); t > maxNow {
			maxNow = t
		}
	}
	for _, n := range e.nodes {
		if m.ReadyTime(n) >= Inf && m.Now(n) < maxNow {
			m.SkipTo(n, maxNow)
		}
	}
	m.NoteFrontier()
}

// fanOut runs the active groups concurrently: the first inline on the
// scheduling goroutine, the rest on the persistent pool. With one
// effective core there is no pool at all — the groups run back-to-back on
// the scheduling goroutine, which is result-identical (group schedules are
// interleaving-invariant between barriers) and avoids handing work to
// goroutines that would only time-slice against this one.
func (e *Parallel) fanOut(end float64) {
	if e.poolSize == 0 {
		e.startPool()
	}
	if e.poolSize == 1 {
		for _, g := range e.active {
			runGroup(e.m, g, end)
		}
		return
	}
	e.pool.wg.Add(len(e.active) - 1)
	for _, g := range e.active[1:] {
		e.pool.work <- groupTask{e.m, g, end}
	}
	runGroup(e.m, e.active[0], end)
	e.pool.wg.Wait()
}

// startPool sizes the pool to the effective parallelism — GOMAXPROCS,
// clamped by the physical core count (extra workers on a smaller machine
// only preempt each other) and the node count — and spawns the workers.
// When the engine becomes unreachable the pool's finalizer closes the
// channel and the workers exit — engines have no Close and are dropped
// freely by tests and benchmarks.
func (e *Parallel) startPool() {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); n > c {
		n = c
	}
	if n > len(e.nodes) {
		n = len(e.nodes)
	}
	e.poolSize = n
	if n == 1 {
		return
	}
	// 2n slots: the scheduling goroutine queues a window's groups ahead of
	// the workers instead of handing them over one at a time.
	e.pool = &pool{work: make(chan groupTask, 2*n), wg: new(sync.WaitGroup)}
	for i := 0; i < n; i++ {
		go worker(e.pool.work, e.pool.wg)
	}
	runtime.SetFinalizer(e.pool, func(p *pool) { close(p.work) })
}

func worker(work <-chan groupTask, wg *sync.WaitGroup) {
	for t := range work {
		runGroup(t.m, t.g, t.end)
		wg.Done()
	}
}

// Run runs epochs clamped to `until`, so every node stops at exactly the
// same local point the sequential engine would. When the frontier is pinned
// below `until` by a lagging idle clock (a sleeper far in the future), only
// the global sequential rule reproduces the reference engine's overrun, so
// the tail falls back to it.
func (e *Parallel) Run(until float64) float64 {
	m := e.m
	for m.Frontier() < until {
		t0 := nextActionTime(m, e.nodes)
		if t0 >= Inf {
			break
		}
		if t0 >= until {
			switch stepOnce(m, e.nodes, Inf) {
			case stepNone:
				return m.Frontier()
			case stepWork:
				m.NoteFrontier()
			}
			continue
		}
		end := t0 + e.epoch
		if end > until {
			end = until
		}
		e.window(t0, end)
	}
	return m.Frontier()
}

// AdvanceTo skips every node's clock to t, applying due control events.
// It runs on the scheduling goroutine (a barrier by construction).
func (e *Parallel) AdvanceTo(t float64) { advanceTo(e.m, t) }
