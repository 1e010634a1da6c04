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
// before the next barrier" relation and every window ends at the next
// control event or the model's soundness horizon, whichever is first, so
// workers never contend on shared state and results are byte-identical to
// the Sequential engine.
type Parallel struct {
	m     Model
	f     *Feed
	epoch float64

	// The worker pool, started lazily at the first multi-group window.
	pool     *pool
	poolSize int // 0 until the first fan-out sizes the pool

	// Per-window scratch: the groups with work before the window's end, and
	// one index per such group, reused from window to window.
	active [][]int
	groups []*index

	// thin says the last grouped window averaged fewer than fanout actions
	// per busy node, so the next one runs inline (see thinWindow); fanout is
	// thinWindow except in tests that must reach the pool.
	thin   bool
	fanout float64
}

// thinWindow is the work per busy node below which a grouped window is not
// worth fanning out: with a couple of actions per group, Groups(), one
// index per group and the pool hand-off cost more than the actions, and
// the window runs inline — the collapsed path, the sequential rule over
// the whole fleet, which a grouped window's schedule equals by
// construction. The benchmark suite's two engine workloads put their
// grouped windows in two populations (actions per busy node, share of
// grouped windows):
//
//	             <1    1-2    2-4    4-8   8-16  16-64   64+
//	idle_fleet    8%    91%     1%      -      -      -     -
//	flagship      -      -     19%     -      5%     5%   71%
//
// idle_fleet's windows are a message delivery or two between control
// events; flagship's are epochs of guest quanta, bar the few a control
// event cuts short. Sweeping the constant — par/seq quanta/s within one
// run, two sweeps, 2-core Xeon, GOMAXPROCS 2; 0 fans every window out as
// before, ∞ runs every grouped window inline:
//
//	constant          0     1     2     4     8    16    32    64   128     ∞
//	idle_fleet  #1  0.53  0.56  1.08  1.12  1.10  1.10  1.04  1.07  1.07  1.10
//	            #2     -  0.58  1.09  1.10  1.12  1.12  1.06  1.12  1.08     -
//	flagship    #1  1.99  1.97  1.76  1.77  1.93  1.83  1.75  1.73  1.56  1.02
//	            #2     -  1.64  2.07  1.87  1.82  2.12  1.88  2.01  1.44     -
//
// Anything from 2 to 64 separates the populations (flagship's ratio is
// noisy on a shared host); 8 sits between idle_fleet's largest windows and
// flagship's smallest that carry real work.
const thinWindow = 8

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

// groupTask is one group's share of a window.
type groupTask struct {
	ix  *index
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
	return &Parallel{m: m, f: newFeed(m), epoch: ep, fanout: thinWindow}
}

// Feed returns the engine's change feed; see Feed.
func (e *Parallel) Feed() *Feed { return e.f }

// Step runs one epoch: partition nodes into sharing groups, run each group
// concurrently up to the epoch end (clamped to the horizon), then barrier.
// Returns false when the whole model is drained.
func (e *Parallel) Step() bool {
	e.f.enter()
	t0 := e.f.all.nextActionTime()
	if t0 >= Inf {
		return false
	}
	e.window(t0, t0+e.epoch)
	return true
}

// horizon returns when a grouped window starting at t0 must end: at the
// next control event anywhere in the fleet — handlers read and steer global
// state (a membership round, an arrival placement, a crash feeding
// observers), so each is applied in the exact sequential order — or at the
// model's own hazard, whichever is first. The fleet index must be fresh.
func (e *Parallel) horizon(t0 float64) float64 {
	hz := e.m.Horizon(t0)
	if _, ev := e.f.all.minEvent(); ev < hz {
		hz = ev
	}
	return hz
}

// window runs one epoch starting at t0 bounded by end and performs the
// barrier work. The fleet index is fresh on entry (the caller just asked it
// for t0).
func (e *Parallel) window(t0, end float64) {
	m, all := e.m, &e.f.all
	if hz := e.horizon(t0); hz <= t0 {
		if hz <= NegInf {
			// Structural collapse: some layer needs the global order for the
			// whole window, so run it inline — exactly the sequential rule
			// restricted to nothing.
			all.run(end)
		} else {
			// A control event (or a model's point hazard) is due right now.
			// Consume actions in the exact sequential order until the
			// horizon clears or the window drains; the next window
			// re-partitions and fans back out.
			for all.step(end) != stepNone {
				t1 := all.nextActionTime()
				if t1 >= end || e.horizon(t1) > t1 {
					break
				}
			}
		}
	} else {
		if hz < end {
			// Clamp the window to the hazard: no control event ever executes
			// inside a grouped window (step applies actions strictly before
			// the limit).
			end = hz
		}
		busy, acts := len(all.nodes)-all.idle, all.acts
		if e.thin {
			all.run(end)
		} else {
			// Only groups with an action before the epoch end need a worker.
			// (Never filter in place: the slice belongs to the model.)
			e.active = e.active[:0]
			for _, g := range m.Groups() {
				if e.f.nextAction(g) < end {
					e.active = append(e.active, g)
				}
			}
			if len(e.active) > 0 {
				e.runGroups(end)
			}
		}
		if busy < 1 {
			busy = 1
		}
		e.thin = float64(all.acts-acts) < e.fanout*float64(busy)
	}
	// Barrier: drag drained nodes up to the fastest clock, exactly the final
	// value the sequential rule's per-step idle drag converges to, then
	// publish the frontier once for the whole epoch.
	all.refresh()
	all.drag(all.top)
	e.f.note()
}

// runGroups gives every active group an index over its nodes — built from
// the fleet index's cached keys, which are exact at a barrier — runs them,
// and rebuilds the fleet index from the keys the groups kept exact (an
// unvouched model is re-read instead). A single group runs inline, so
// callbacks that re-enter the engine (checkpoint managers driving Step from
// an observer) stay on one goroutine. With one effective core there is no
// pool at all — the groups run back-to-back on the scheduling goroutine,
// which is result-identical (group schedules are interleaving-invariant
// between barriers) and avoids handing work to goroutines that would only
// time-slice against this one.
func (e *Parallel) runGroups(end float64) {
	for len(e.groups) < len(e.active) {
		e.groups = append(e.groups, &index{f: e.f})
	}
	run := e.groups[:len(e.active)]
	for i, g := range e.active {
		run[i].reset(g)
	}
	if len(run) > 1 && e.poolSize == 0 {
		e.startPool()
	}
	if len(run) == 1 || e.poolSize == 1 {
		for _, ix := range run {
			ix.run(end)
		}
	} else {
		e.pool.wg.Add(len(run) - 1)
		for _, ix := range run[1:] {
			e.pool.work <- groupTask{ix, end}
		}
		run[0].run(end)
		e.pool.wg.Wait()
	}
	for _, ix := range run {
		ix.release()
	}
	if e.f.vouched {
		e.f.all.build()
	} else {
		e.f.all.stale = true
	}
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
	if nn := e.m.NumNodes(); n > nn {
		n = nn
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
		t.ix.run(t.end)
		wg.Done()
	}
}

// Run runs epochs clamped to `until`, so every node stops at exactly the
// same local point the sequential engine would. When the frontier is pinned
// below `until` by a lagging idle clock (a sleeper far in the future), only
// the global sequential rule reproduces the reference engine's overrun, so
// the tail falls back to it.
func (e *Parallel) Run(until float64) float64 {
	m, all := e.m, &e.f.all
	e.f.enter()
	for e.f.behind(until) {
		t0 := all.nextActionTime()
		if t0 >= Inf {
			break
		}
		if t0 >= until {
			switch all.step(Inf) {
			case stepNone:
				return m.Frontier()
			case stepWork:
				e.f.note()
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
func (e *Parallel) AdvanceTo(t float64) { e.f.advanceTo(t) }
