package member

import (
	"cmp"
	"slices"
)

// This file holds one observer's SWIM state about its peers: the view
// records, the probe RTTs and the flap counts, each a small table ordered
// by target node, plus the chunks the records and confirmation sets are
// carved from. An observer's tables have a single writer inside a grouped
// window — the observer's own worker, delivering its frames or running its
// protocol actions — like every per-node field of the Service.

const (
	// recChunk is how many view records one allocation carves.
	recChunk = 4
	// confChunk is the words of confirmation bitset one allocation carves
	// (16 sets at 256 nodes, one at 4096).
	confChunk = 64
	// rttChunk is the first rtt table's length; it doubles from there up
	// to one slot per peer.
	rttChunk = 64
	// noRTT marks an rtt slot never sampled (samples are never negative).
	noRTT = -1
)

// observer is one node's tables about its peers.
type observer struct {
	// views holds the materialized records (see view), ascending by target.
	// Records stay where they were carved: a *view is valid until pruned,
	// whatever the table does around it.
	views []*view
	// rtt[slot] is the exponentially-weighted moving average of the
	// observer's direct-probe round-trip times to the peer at that position
	// of its first probe cycle (noRTT before any sample). The rotation fills
	// the slots in order; inv and b0 invert that cycle's affine map.
	rtt     []float64
	inv, b0 int
	// flaps counts refuted suspicions per target, ascending by target.
	flaps []flapCount

	recs  []view   // records not yet handed out
	words []uint64 // confirmation words not yet handed out
}

// flapCount is one target's refuted suspicions at one observer.
type flapCount struct {
	target int
	n      uint64
}

// find returns where target's record is or would go in views.
func (o *observer) find(target int) (int, bool) {
	return slices.BinarySearchFunc(o.views, target, func(v *view, t int) int { return cmp.Compare(v.target, t) })
}

// view returns the record for target, or nil when none is materialized.
func (o *observer) view(target int) *view {
	if i, ok := o.find(target); ok {
		return o.views[i]
	}
	return nil
}

// materialize returns the record for target, carving a default one (alive,
// incarnation 1) into place when there is none.
func (o *observer) materialize(target int) *view {
	i, ok := o.find(target)
	if ok {
		return o.views[i]
	}
	if len(o.recs) == 0 {
		o.recs = make([]view, recChunk)
	}
	v := &o.recs[0]
	o.recs = o.recs[1:]
	*v = view{target: target, inc: 1, deadline: inf} // Alive is State's zero
	if o.views == nil {
		o.views = make([]*view, 0, recChunk)
	}
	o.views = slices.Insert(o.views, i, v)
	return v
}

// remove drops the record at index i of views.
func (o *observer) remove(i int) { o.views = slices.Delete(o.views, i, i+1) }

// union returns a ∪ b ∪ {self} over n nodes (self < 0: none), and whether
// that outgrows a (when it does not, a itself comes back and nothing is
// carved). A grown set is carved from the observer's chunk, and only its
// own words: the set is never written once built.
func (o *observer) union(a, b confirms, self, n int) (confirms, bool) {
	grows := self >= 0 && (a == nil || a[self/64]&(1<<(self%64)) == 0)
	for i := 0; i < len(b) && !grows; i++ {
		grows = a == nil && b[i] != 0 || a != nil && b[i]&^a[i] != 0
	}
	if !grows {
		return a, false
	}
	w := (n + 63) / 64
	if len(o.words) < w {
		o.words = make([]uint64, max(w, confChunk))
	}
	c := confirms(o.words[:w:w])
	o.words = o.words[w:]
	copy(c, a)
	for i, x := range b {
		c[i] |= x
	}
	if self >= 0 {
		c[self/64] |= 1 << (self % 64)
	}
	return c, true
}

// rttSlot returns target's position in the first probe cycle of node self
// over m peers: the inverse of cycleParams' map for cycle 0.
func (o *observer) rttSlot(self, target, m int) int {
	if m <= 1 {
		return 0
	}
	idx := target
	if target > self {
		idx--
	}
	return (idx - o.b0 + m) % m * o.inv % m
}

// rttAt returns the smoothed RTT in slot, and whether there is one.
func (o *observer) rttAt(slot int) (float64, bool) {
	if slot >= len(o.rtt) || o.rtt[slot] == noRTT {
		return 0, false
	}
	return o.rtt[slot], true
}

// growRTT extends the rtt table to hold slot, doubling from rttChunk up to
// one slot per peer (m).
func (o *observer) growRTT(slot, m int) {
	if slot >= cap(o.rtt) {
		c := max(rttChunk, 2*cap(o.rtt))
		for c <= slot {
			c *= 2
		}
		grown := make([]float64, len(o.rtt), min(c, m))
		copy(grown, o.rtt)
		o.rtt = grown
	}
	for len(o.rtt) <= slot {
		o.rtt = append(o.rtt, noRTT)
	}
}

// flap counts one refuted suspicion of target.
func (o *observer) flap(target int) {
	i, ok := o.flapIndex(target)
	if !ok {
		o.flaps = slices.Insert(o.flaps, i, flapCount{target: target})
	}
	o.flaps[i].n++
}

// flapsOf returns the refuted suspicions of target counted so far.
func (o *observer) flapsOf(target int) uint64 {
	if i, ok := o.flapIndex(target); ok {
		return o.flaps[i].n
	}
	return 0
}

// flapIndex returns where target's count is or would go in flaps.
func (o *observer) flapIndex(target int) (int, bool) {
	return slices.BinarySearchFunc(o.flaps, target, func(f flapCount, t int) int { return cmp.Compare(f.target, t) })
}

// inverse returns a's inverse mod m, for gcd(a, m) = 1 and m > 1.
func inverse(a, m int) int {
	t, nt, r, nr := 0, 1, m, a
	for nr != 0 {
		q := r / nr
		t, nt = nt, t-q*nt
		r, nr = nr, r-q*nr
	}
	if t < 0 {
		t += m
	}
	return t
}
