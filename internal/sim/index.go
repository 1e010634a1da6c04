package sim

import "math/bits"

// This file is the engines' scheduling index. The reference rule — step the
// node with the lowest ready time unless a control event is due first, then
// drag the drained nodes up to the acting clock — used to be spelled as
// full scans over the node set, several per action. The index answers the
// same questions from cached per-node keys and re-reads only the nodes whose
// inputs changed since it last looked:
//
//   - two winner trees over the set, keyed (ReadyTime, node) and
//     (NextEvent, node), whose roots are the scans' results (lowest node
//     wins ties, as the ascending scans did);
//   - a bitset of drained nodes (ReadyTime >= Inf), walked in ascending
//     order for the idle drag;
//   - each node's clock, so the drag and the frontier test need no model
//     call for a node that is already there.
//
// Who says what changed is the Feed. DESIGN.md §11 has the exactness
// argument.

// Feed is the channel through which a model tells an engine which nodes'
// scheduling inputs it wrote. An engine that is never vouched for — every
// Model stub, a decorator that only forwards calls — treats every node as
// changed after every action and at every driver entry, which is the
// full-scan rule's cost and its schedule. A model that vouches promises to
// report, before the engine next looks, every node whose ReadyTime,
// NextEvent or Now could return a different value than at the last report:
// Changed for a single node, Rebuild after a bulk edit.
//
// The engine's own SkipTo calls are not reported: it knows what they do (a
// drained node's clock moves, nothing else), and the node it steps or whose
// event it applies it re-reads by itself.
//
// Changed may be called from a sharing group's worker for the nodes of that
// group, which is the only state a worker may write anyway; everything else
// belongs to the scheduling goroutine.
type Feed struct {
	m Model

	// Cached keys, by node. A sharing group's worker reads and writes only
	// its own nodes' slots.
	ready, event, now []float64

	mark  []bool   // node sits on its owner's dirty list
	owner []*index // the index scheduling node right now
	pos   []int32  // node's leaf in owner's trees

	all     index // the whole fleet
	vouched bool
	lag     int // a node whose clock was behind at the last frontier test
}

// index schedules one node set: the whole fleet, or one sharing group for
// the length of a window.
type index struct {
	f     *Feed
	nodes []int // ascending
	// tree holds two winner trees of node ids in heap layout, n leaves each:
	// [0, 2n) ordered by ready time, [2n, 4n) by event time. Slot 1 of each
	// is the winner; slot 0 is unused.
	tree    []int32
	drained []uint64 // bit p: nodes[p] can never progress on its own
	dirty   []int32  // reported nodes, each once (Feed.mark)
	stale   bool     // re-read every node before the next look
}

func newFeed(m Model) *Feed {
	n := m.NumNodes()
	keys := make([]float64, 3*n)
	f := &Feed{
		m:     m,
		ready: keys[:n:n], event: keys[n : 2*n : 2*n], now: keys[2*n:],
		mark:  make([]bool, n),
		owner: make([]*index, n),
		pos:   make([]int32, n),
	}
	f.all.f = f
	f.all.reset(allNodes(n))
	f.all.stale = true
	return f
}

// Changed reports that node's scheduling inputs were written.
func (f *Feed) Changed(node int) {
	if f == nil || f.mark[node] {
		return
	}
	f.mark[node] = true
	ix := f.owner[node]
	ix.dirty = append(ix.dirty, int32(node))
}

// Rebuild reports a bulk edit: every node is re-read. Driver-side only —
// never from inside a grouped window.
func (f *Feed) Rebuild() {
	if f != nil {
		f.all.stale = true
	}
}

// Vouch starts (or, with false, ends) the model's promise to report every
// write; see Feed.
func (f *Feed) Vouch(ok bool) {
	if f != nil {
		f.vouched = ok
		f.all.stale = true
	}
}

// Audit re-reads every node and returns the first whose cached keys differ
// from the model's although no report is pending for it — a write the model
// failed to report — or -1. Between engine calls only; it costs the full
// scan the feed exists to avoid, and is what the kernel's engine oracle
// runs after every step.
func (f *Feed) Audit() int {
	if !f.vouched || f.all.stale {
		return -1
	}
	for nd := range f.mark {
		if !f.mark[nd] && (f.ready[nd] != f.m.ReadyTime(nd) || f.event[nd] != f.m.NextEvent(nd) || f.now[nd] != f.m.Now(nd)) {
			return nd
		}
	}
	return -1
}

// enter marks a driver entry: code the engine knows nothing about ran since
// it last looked, so an unvouched model may have changed anywhere.
func (f *Feed) enter() {
	if !f.vouched {
		f.all.stale = true
	}
}

// behind reports whether the frontier (the minimum clock) is below until.
// Clocks only move forward, so one lagging witness answers until it
// catches up.
func (f *Feed) behind(until float64) bool {
	if !f.vouched {
		return f.m.Frontier() < until
	}
	f.all.refresh()
	if f.lag < len(f.now) && f.now[f.lag] < until {
		return true
	}
	for n, t := range f.now {
		if t < until {
			f.lag = n
			return true
		}
	}
	return false
}

// nextAction returns the earliest cached ready or event time over nodes.
func (f *Feed) nextAction(nodes []int) float64 {
	t := Inf
	for _, n := range nodes {
		if r := f.ready[n]; r < t {
			t = r
		}
		if e := f.event[n]; e < t {
			t = e
		}
	}
	return t
}

// maxNow returns the fastest cached clock (0 for an empty fleet).
func (f *Feed) maxNow() float64 {
	max := 0.0
	for _, t := range f.now {
		if t > max {
			max = t
		}
	}
	return max
}

// reset points the index at nodes (ascending), takes them over from
// whichever index scheduled them, and builds the trees from the cached
// keys — no model call.
func (ix *index) reset(nodes []int) {
	f := ix.f
	n := len(nodes)
	ix.nodes = nodes
	if cap(ix.tree) < 4*n {
		ix.tree = make([]int32, 4*n)
		ix.drained = make([]uint64, (n+63)/64)
		ix.dirty = make([]int32, 0, n)
	}
	ix.tree = ix.tree[:4*n]
	ix.drained = ix.drained[:(n+63)/64]
	ix.dirty = ix.dirty[:0]
	ix.stale = false
	for p, nd := range nodes {
		f.owner[nd] = ix
		f.pos[nd] = int32(p)
	}
	ix.build()
}

// release hands a group's nodes back to the whole-fleet index, whose trees
// the caller then rebuilds: the group kept the nodes' cached keys exact, but
// the fleet's trees and drained set have not seen them.
func (ix *index) release() {
	f := ix.f
	for _, nd := range ix.nodes {
		f.owner[nd] = &f.all
		f.pos[nd] = int32(nd)
	}
	// A group's run ends on a look that found nothing, so nothing is
	// pending; if a report did arrive after it, the fleet index inherits it.
	f.all.dirty = append(f.all.dirty, ix.dirty...)
	ix.dirty = ix.dirty[:0]
	ix.nodes = nil
}

// wins orders two nodes by key, lowest node first on a tie.
func wins(key []float64, a, b int32) int32 {
	if ka, kb := key[a], key[b]; ka < kb || (ka == kb && a < b) {
		return a
	}
	return b
}

// build derives both trees and the drained set from the cached keys.
func (ix *index) build() {
	f := ix.f
	n := len(ix.nodes)
	rt, et := ix.tree[:2*n], ix.tree[2*n:]
	for i := range ix.drained {
		ix.drained[i] = 0
	}
	for p, nd := range ix.nodes {
		rt[n+p], et[n+p] = int32(nd), int32(nd)
		if f.ready[nd] >= Inf {
			ix.drained[p>>6] |= 1 << (p & 63)
		}
	}
	for i := n - 1; i >= 1; i-- {
		rt[i] = wins(f.ready, rt[2*i], rt[2*i+1])
		et[i] = wins(f.event, et[2*i], et[2*i+1])
	}
}

// replay recomputes one tree's path from leaf p to the root.
func replay(t []int32, key []float64, n, p int) {
	for i := (n + p) >> 1; i >= 1; i >>= 1 {
		t[i] = wins(key, t[2*i], t[2*i+1])
	}
}

// reread fetches nd's keys from the model and repairs what they index.
func (ix *index) reread(nd int) {
	f := ix.f
	r, e := f.m.ReadyTime(nd), f.m.NextEvent(nd)
	f.now[nd] = f.m.Now(nd)
	n, p := len(ix.nodes), int(f.pos[nd])
	if r != f.ready[nd] {
		f.ready[nd] = r
		if r >= Inf {
			ix.drained[p>>6] |= 1 << (p & 63)
		} else {
			ix.drained[p>>6] &^= 1 << (p & 63)
		}
		replay(ix.tree[:2*n], f.ready, n, p)
	}
	if e != f.event[nd] {
		f.event[nd] = e
		replay(ix.tree[2*n:], f.event, n, p)
	}
}

// refresh brings the index up to date with the model: every node when
// stale, the reported ones otherwise.
func (ix *index) refresh() {
	f := ix.f
	if ix.stale {
		for _, nd := range ix.nodes {
			f.mark[nd] = false
			f.ready[nd], f.event[nd], f.now[nd] = f.m.ReadyTime(nd), f.m.NextEvent(nd), f.m.Now(nd)
		}
		ix.dirty = ix.dirty[:0]
		ix.stale = false
		ix.build()
		return
	}
	for _, nd := range ix.dirty {
		f.mark[nd] = false
		ix.reread(int(nd))
	}
	ix.dirty = ix.dirty[:0]
}

// acted records that the engine just ran an action on nd: its keys moved
// whether or not the model says so, and an unvouched model may have moved
// anything.
func (ix *index) acted(nd int) {
	if ix.f.vouched {
		ix.f.Changed(nd)
	} else {
		ix.stale = true
	}
}

// minReady returns the node with the lowest ready time (lowest node on a
// tie), or (-1, Inf) when the whole set is drained. The index must be fresh.
func (ix *index) minReady() (int, float64) {
	if len(ix.nodes) == 0 {
		return -1, Inf
	}
	nd := int(ix.tree[1])
	if t := ix.f.ready[nd]; t < Inf {
		return nd, t
	}
	return -1, Inf
}

// minEvent returns the node with the earliest control event (lowest node
// on a tie), or (-1, Inf). The index must be fresh.
func (ix *index) minEvent() (int, float64) {
	n := len(ix.nodes)
	if n == 0 {
		return -1, Inf
	}
	nd := int(ix.tree[2*n+1])
	if t := ix.f.event[nd]; t < Inf {
		return nd, t
	}
	return -1, Inf
}

// nextActionTime returns the earliest ready time or control event over the
// set, or >= Inf when it is fully drained.
func (ix *index) nextActionTime() float64 {
	ix.refresh()
	_, t := ix.minReady()
	if _, e := ix.minEvent(); e < t {
		t = e
	}
	return t
}

// drag pulls the set's drained nodes up to t, in ascending node order. The
// index must be fresh.
func (ix *index) drag(t float64) {
	f := ix.f
	for w, word := range ix.drained {
		for word != 0 {
			nd := ix.nodes[w<<6+bits.TrailingZeros64(word)]
			word &= word - 1
			if f.now[nd] < t {
				f.m.SkipTo(nd, t)
				f.now[nd] = t
			}
		}
	}
}

// step makes the single scheduling decision of the reference loop over the
// index's set, bounded by limit: apply the next due control event, or step
// the lowest-ready-time node (ties to the lowest node index) and drag the
// set's drained nodes up to its clock. Nothing due before limit returns
// stepNone. This is the only scheduling loop; both engines and every group
// worker run it.
func (ix *index) step(limit float64) stepResult {
	m := ix.f.m
	ix.refresh()
	best, bestT := ix.minReady()
	// A scheduled crash/recovery due before the next quantum is the next
	// thing that happens — including when every live node is drained but a
	// recovery would thaw frozen work.
	if evN, evT := ix.minEvent(); evN >= 0 && evT <= bestT {
		if evT >= limit {
			return stepNone
		}
		// Simulated time has globally reached evT: no node in the set can act
		// earlier. Drag fully drained nodes up to the event instant BEFORE the
		// handler runs, so clocks (and the frontier a handler may read) are
		// identical on both engines — without this, the sequential loop leaves
		// drained clocks at their last work-step drag while the parallel
		// barrier has already pulled them forward, and a handler that stamps
		// the frontier (a checkpoint policy clock, a restore record) or spawns
		// onto a drained node diverges between engines.
		ix.drag(evT)
		m.ApplyEvent(evN)
		ix.acted(evN)
		return stepEvent
	}
	if best < 0 || bestT >= limit {
		return stepNone
	}
	m.SkipTo(best, bestT)
	m.StepNode(best)
	ix.acted(best)
	// Drag fully idle nodes forward so the time frontier advances (their
	// idle power is still integrated over the skipped span). Which nodes are
	// idle is judged after the quantum: one it just sent to no longer is.
	ix.refresh()
	ix.drag(ix.f.now[best])
	return stepWork
}

// run replays the set's schedule up to limit on the caller's goroutine. The
// parallel engine ends a grouped window at the earliest control event known
// at the barrier, so a group's worker applies an event only when the group's
// own work scheduled it inside the window, and it then touches group-local
// state only.
func (ix *index) run(limit float64) {
	for ix.step(limit) != stepNone {
	}
}

// advanceTo implements Engine.AdvanceTo: skip every node to t, bounded by
// pending wakes, applying control events inside the gap (or a driver idling
// past a recovery would never thaw the node).
func (f *Feed) advanceTo(t float64) {
	m, ix := f.m, &f.all
	f.enter()
	for {
		bound := t
		for _, n := range ix.nodes {
			if e := m.NextWake(n); e < bound {
				bound = e
			}
		}
		ix.refresh()
		evN, evT := ix.minEvent()
		evDue := evN >= 0 && evT <= bound
		if evDue && evT < bound {
			bound = evT
		}
		for _, n := range ix.nodes {
			m.SkipTo(n, bound)
		}
		// Every clock moved, busy nodes' included: one rebuild, not a report
		// per node.
		ix.stale = true
		if !evDue {
			break
		}
		m.ApplyEvent(evN)
	}
	m.NoteFrontier()
}
