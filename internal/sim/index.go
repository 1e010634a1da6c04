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
//   - a bitset of drained nodes (ReadyTime >= Inf) and, for a model that
//     vouches, the stack of drags those nodes have not been told about yet
//     (see drag), so an idle node costs nothing per action;
//   - each node's clock, so the drag, the frontier and the barrier need no
//     model call for a node that is already there.
//
// Who says what changed is the Feed. DESIGN.md §11 has the exactness
// argument.

// Feed is the channel through which a model tells an engine which nodes'
// scheduling inputs it wrote. An engine that is never vouched for — every
// Model stub, a decorator that only forwards calls — treats every node as
// changed after every action and at every driver entry, which is the
// full-scan rule's cost and its schedule. A model that vouches promises two
// things:
//
//   - it reports, before the engine next looks, every node whose ReadyTime,
//     NextEvent or Now could return a different value than at the last
//     report: Changed for a single node, Rebuild after a bulk edit;
//   - it reads every node clock as the later of the clock it keeps and
//     Floor, and its SkipTo compares against the clock it keeps. The engine
//     drags a vouching model's drained nodes lazily: it records the drag and
//     writes it into the model (with SkipTo) only when it next needs the
//     node's own clock to be right.
//
// The engine's own SkipTo calls are not reported: it knows what they do (a
// drained node's clock moves, nothing else), and the node it steps or whose
// event it applies it re-reads by itself.
//
// Changed and Floor may be called from a sharing group's worker for the
// nodes of that group, which is the only state a worker may touch anyway;
// everything else belongs to the scheduling goroutine.
type Feed struct {
	m Model

	// Cached keys, by node. A sharing group's worker reads and writes only
	// its own nodes' slots.
	ready, event, now []float64
	// since[n] is the generation of n's owner index when n last entered its
	// drained set: the drags it has missed are those pushed after it.
	since []uint64

	mark  []bool   // node sits on its owner's dirty list
	owner []*index // the index scheduling node right now
	pos   []int32  // node's leaf in owner's trees

	all     index // the whole fleet
	vouched bool
	lag     int // a node whose clock was behind at the last frontier test

	// front is the frontier while the engine publishes it (note); known
	// says a publication is under way.
	front float64
	known bool
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
	idle    int      // drained nodes
	dirty   []int32  // reported nodes, each once (Feed.mark)
	stale   bool     // re-read every node before the next look

	// The drags the drained nodes have not been told about (vouched models
	// only): generations ascending, targets descending. gen numbers the
	// drags.
	pending []pull
	gen     uint64
	last    float64 // the target of the latest drag
	top     float64 // the fastest clock any node of the set has held
	acts    int     // actions taken since reset
}

// pull is one pending drag: every node drained when it was pushed is at t
// or later.
type pull struct {
	gen uint64
	t   float64
}

func newFeed(m Model) *Feed {
	n := m.NumNodes()
	keys := make([]float64, 3*n)
	f := &Feed{
		m:     m,
		ready: keys[:n:n], event: keys[n : 2*n : 2*n], now: keys[2*n:],
		since: make([]uint64, n),
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
// write and to read clocks through Floor; see Feed. Ending it writes every
// pending drag into the model first, so a model whose engine is replaced
// keeps its clocks. Between engine calls only.
func (f *Feed) Vouch(ok bool) {
	if f != nil {
		if !ok {
			f.all.settle()
		}
		f.vouched = ok
		f.all.stale = true
	}
}

// Floor returns the instant the engine has dragged node to without writing
// it into the model, or NegInf: a vouching model's clock for node is the
// later of its own and this. Only a drained node ever has one, so for any
// other — the node the engine steps, among them — the answer is one load
// and a compare.
func (f *Feed) Floor(node int) float64 {
	if f == nil || f.ready[node] < Inf {
		return NegInf
	}
	return f.owner[node].floor(node)
}

// Frontier returns the global frontier (the minimum clock) while the engine
// publishes it — that is, during the Model.NoteFrontier call it makes right
// after a drag, when the index knows the frontier without a walk over the
// fleet (index.frontier). At any other time ok is false and the model
// computes the frontier itself.
func (f *Feed) Frontier() (t float64, ok bool) {
	if f == nil || !f.known {
		return 0, false
	}
	return f.front, true
}

// note publishes the frontier: Model.NoteFrontier, with the fleet index's
// frontier on offer through Frontier for the length of the call. Only right
// after the fleet index dragged.
func (f *Feed) note() {
	f.front, f.known = f.all.frontier(), true
	f.m.NoteFrontier()
	f.known = false
}

// clock returns node's clock as the index knows it: the cached value,
// raised by any drag still pending.
func (f *Feed) clock(nd int) float64 {
	if fl := f.Floor(nd); fl > f.now[nd] {
		return fl
	}
	return f.now[nd]
}

// Audit re-reads every node and returns the first whose cached keys differ
// from the model's although no report is pending for it — a write the model
// failed to report — or -1. Clocks are compared as the model reads them,
// pending drags included. Between engine calls only; it costs the full scan
// the feed exists to avoid, and is what the kernel's engine oracle runs
// after every step.
func (f *Feed) Audit() int {
	if !f.vouched || f.all.stale {
		return -1
	}
	for nd := range f.mark {
		if !f.mark[nd] && (f.ready[nd] != f.m.ReadyTime(nd) || f.event[nd] != f.m.NextEvent(nd) || f.clock(nd) != f.m.Now(nd)) {
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
	if f.lag < len(f.now) && f.clock(f.lag) < until {
		return true
	}
	for n := range f.now {
		if f.clock(n) < until {
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

// reset points the index at nodes (ascending), takes them over from
// whichever index scheduled them — which first writes out the drags it
// still owes them — and builds the trees from the cached keys, with no
// other model call.
func (ix *index) reset(nodes []int) {
	f := ix.f
	n := len(nodes)
	for _, nd := range nodes {
		if o := f.owner[nd]; o != nil {
			o.settle()
		}
	}
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
	ix.top, ix.acts = 0, 0
	for p, nd := range nodes {
		f.owner[nd] = ix
		f.pos[nd] = int32(p)
	}
	ix.build()
}

// release hands a group's nodes back to the whole-fleet index, whose trees
// the caller then rebuilds: the group kept the nodes' cached keys exact and
// writes out its pending drags here, but the fleet's trees and drained set
// have not seen them.
func (ix *index) release() {
	f := ix.f
	ix.settle()
	for _, nd := range ix.nodes {
		f.owner[nd] = &f.all
		f.pos[nd] = int32(nd)
	}
	// A group's run ends on a look that found nothing, so nothing is
	// pending; if a report did arrive after it, the fleet index inherits it.
	f.all.dirty = append(f.all.dirty, ix.dirty...)
	ix.dirty = ix.dirty[:0]
	if ix.top > f.all.top {
		f.all.top = ix.top
	}
	f.all.acts += ix.acts
	ix.nodes = nil
}

// wins orders two nodes by key, lowest node first on a tie.
func wins(key []float64, a, b int32) int32 {
	if ka, kb := key[a], key[b]; ka < kb || (ka == kb && a < b) {
		return a
	}
	return b
}

// build derives both trees and the drained set from the cached keys. No
// drag may be pending: it would be lost with the old drained set.
func (ix *index) build() {
	f := ix.f
	n := len(ix.nodes)
	rt, et := ix.tree[:2*n], ix.tree[2*n:]
	for i := range ix.drained {
		ix.drained[i] = 0
	}
	ix.idle = 0
	for p, nd := range ix.nodes {
		rt[n+p], et[n+p] = int32(nd), int32(nd)
		if f.ready[nd] >= Inf {
			ix.drained[p>>6] |= 1 << (p & 63)
			f.since[nd] = ix.gen
			ix.idle++
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

// reread fetches nd's keys from the model and repairs what they index. A
// node leaving the drained set gets the drags it missed written into the
// model first, while its cached ready time still makes them apply.
func (ix *index) reread(nd int) {
	f := ix.f
	r, e := f.m.ReadyTime(nd), f.m.NextEvent(nd)
	now := f.m.Now(nd)
	f.now[nd] = now
	if now > ix.top {
		ix.top = now
	}
	n, p := len(ix.nodes), int(f.pos[nd])
	if r != f.ready[nd] {
		if was, is := f.ready[nd] >= Inf, r >= Inf; is && !was {
			ix.drained[p>>6] |= 1 << (p & 63)
			f.since[nd] = ix.gen
			ix.idle++
		} else if was && !is {
			if fl := f.Floor(nd); fl > NegInf {
				f.m.SkipTo(nd, fl)
			}
			ix.drained[p>>6] &^= 1 << (p & 63)
			ix.idle--
		}
		f.ready[nd] = r
		replay(ix.tree[:2*n], f.ready, n, p)
	}
	if e != f.event[nd] {
		f.event[nd] = e
		replay(ix.tree[2*n:], f.event, n, p)
	}
}

// refresh brings the index up to date with the model: every node when
// stale — after writing out the pending drags, which the rebuild would
// lose — the reported ones otherwise.
func (ix *index) refresh() {
	f := ix.f
	if ix.stale {
		ix.settle()
		for _, nd := range ix.nodes {
			f.mark[nd] = false
			f.ready[nd], f.event[nd], f.now[nd] = f.m.ReadyTime(nd), f.m.NextEvent(nd), f.m.Now(nd)
			if f.now[nd] > ix.top {
				ix.top = f.now[nd]
			}
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
	ix.acts++
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

// drag pulls the set's drained nodes up to t. The index must be fresh.
//
// For a vouched model it touches no node: it pushes (generation, t) onto
// the pending stack, and a drained node's clock is the later of its own
// and the first target pushed after it drained (floor) until the index
// writes that into the model — when the node leaves the drained set
// (reread) or its index hands it over or rebuilds (settle). The stack keeps
// targets descending and drops what t covers: a node that missed an
// earlier, lower target misses t too. One floor for all would not do,
// because targets are not monotone — an event drag to evT can follow a
// work drag to a later clock, and a node that drained in between has been
// dragged to evT only.
//
// An unvouched model is dragged eagerly, node by node in ascending order.
func (ix *index) drag(t float64) {
	ix.last = t
	if ix.idle == 0 {
		return
	}
	if t > ix.top {
		ix.top = t
	}
	f := ix.f
	if f.vouched {
		s := ix.pending
		for len(s) > 0 && s[len(s)-1].t <= t {
			s = s[:len(s)-1]
		}
		ix.gen++
		ix.pending = append(s, pull{ix.gen, t})
		return
	}
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

// floor returns the pending drag target drained node nd has missed, or
// NegInf: the first one pushed after nd drained, which the stack's order
// makes the highest.
func (ix *index) floor(nd int) float64 {
	if len(ix.pending) == 0 {
		return NegInf
	}
	return ix.missed(ix.f.since[nd])
}

// missed returns the first pending target pushed after generation since, or
// NegInf.
func (ix *index) missed(since uint64) float64 {
	s := ix.pending
	lo, hi := 0, len(s)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); s[mid].gen > since {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(s) {
		return NegInf
	}
	return s[lo].t
}

// settle writes every pending drag into the model and empties the stack:
// the set is about to be rebuilt or to hand its nodes over. The model's
// SkipTo is called for every node with a floor — the cached clock may
// already include the floor while the model's own clock does not.
func (ix *index) settle() {
	if len(ix.pending) == 0 {
		return
	}
	f := ix.f
	for w, word := range ix.drained {
		for word != 0 {
			nd := ix.nodes[w<<6+bits.TrailingZeros64(word)]
			word &= word - 1
			if t := ix.missed(f.since[nd]); t > NegInf {
				f.m.SkipTo(nd, t)
				if t > f.now[nd] {
					f.now[nd] = t
				}
			}
		}
	}
	ix.pending = ix.pending[:0]
}

// frontier returns the set's minimum clock right after a drag. Every
// drained node then sits at or above the drag's target, and some node sits
// exactly there or below — the node that just acted, or at a barrier (a
// drag to the fastest clock) every drained node — so only the busy nodes'
// cached clocks can be lower. The index must be fresh.
func (ix *index) frontier() float64 {
	f := ix.f
	t := ix.last
	for w, word := range ix.drained {
		busy := ^word
		if rest := len(ix.nodes) - w<<6; rest < 64 {
			busy &= 1<<rest - 1
		}
		for busy != 0 {
			if c := f.now[ix.nodes[w<<6+bits.TrailingZeros64(busy)]]; c < t {
				t = c
			}
			busy &= busy - 1
		}
	}
	return t
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
		// per node. (A drained node's pending drag still applies on top of
		// the clock SkipTo compared against, until the rebuild writes it out.)
		ix.stale = true
		if !evDue {
			break
		}
		m.ApplyEvent(evN)
	}
	m.NoteFrontier()
}
