// Package topo models a hierarchical datacenter fabric: nodes grouped
// into racks behind top-of-rack (ToR) switches, ToRs joined through a
// spine tier. Every directed link has its own latency, bandwidth and
// occupancy, so in-rack traffic (two hops: node→ToR→node) is cheaper than
// cross-rack traffic (four hops: node→ToR→spine→ToR→node), and the shared
// ToR→spine uplinks — sized by the oversubscription ratio — are contended
// by every concurrent cross-rack transfer.
//
// A *Fabric plugs under msg.Interconnect as its PathModel: the message
// cost becomes the sum of hop latencies plus serialisation on the path's
// bottleneck link (cut-through forwarding), with per-link queueing when a
// link is busy. The interconnect's own flat pipe is the other PathModel; a
// flat Spec builds no fabric at all and leaves the pipe in place.
//
// Everything is deterministic: routing is static shortest-path (fixed by
// the spec), link state is mutated only by Transmit, and there is no
// randomness anywhere in the package. A fabric shares links between node
// pairs, which breaks the interconnect's disjoint-shard invariant — but the
// sharing is structured: in-rack routes touch only the two endpoints'
// private access links, and cross-rack routes touch only the two racks' ToR
// uplinks. The fabric exposes that structure as one sharing domain per rack
// (Domain, NumDomains), and the cluster folds it into the union-find sharing
// partition: two groups must merge only when both span multiple racks and
// have a rack in common, so rack-local traffic keeps the parallel engine
// fully parallel and both engines stay byte-identical.
package topo

import (
	"fmt"
	"math"
	"sort"
)

// Fabric kinds.
const (
	// KindFlat selects the interconnect's own flat pipe; Build returns no
	// fabric for it.
	KindFlat = "flat"
	// KindFatTree selects the rack/spine fabric this package models.
	KindFatTree = "fattree"
)

// Fabric parameters: 10 GbE access links with sub-microsecond per-hop
// switch latency on every fabric, and the default rack count.
const (
	DefaultHopLatencySec     = 0.5e-6
	DefaultAccessBytesPerSec = 1.25e9
	DefaultRacks             = 2
)

// Spec describes a fabric. The zero value is the flat single pipe.
type Spec struct {
	// Kind is KindFlat (default) or KindFatTree.
	Kind string
	// Racks is the number of racks nodes are grouped into (fat tree only);
	// 0 selects DefaultRacks. Nodes are assigned to racks in contiguous
	// blocks of ceil(n/Racks).
	Racks int
	// Oversub is the uplink oversubscription ratio: each ToR's uplink
	// bandwidth is (nodes-per-rack x access bandwidth) / Oversub, so 1 is a
	// non-blocking fabric and larger ratios starve cross-rack traffic.
	// 0 selects 1.
	Oversub float64
	// CutUplinks lists racks whose ToR<->spine uplinks are absent in both
	// directions, leaving their cross-rack pairs unrouteable. This is an
	// analysis aid (hdcinspect): clusters reject fabrics with unrouteable
	// pairs — time-bounded cuts belong to fault.PartitionWindow instead.
	CutUplinks []int
}

// FlatSpec returns the spec selecting the interconnect's flat pipe.
func FlatSpec() Spec { return Spec{Kind: KindFlat} }

// FatTree returns a fat-tree spec with the given rack count and
// oversubscription ratio.
func FatTree(racks int, oversub float64) Spec {
	return Spec{Kind: KindFatTree, Racks: racks, Oversub: oversub}
}

// withDefaults resolves zero fields.
func (s Spec) withDefaults() Spec {
	if s.Kind == "" {
		s.Kind = KindFlat
	}
	if s.Racks == 0 {
		s.Racks = DefaultRacks
	}
	if s.Oversub == 0 {
		s.Oversub = 1
	}
	return s
}

// Validate rejects specs that cannot describe a fabric.
func (s Spec) Validate() error {
	s = s.withDefaults()
	switch s.Kind {
	case KindFlat, KindFatTree:
	default:
		return fmt.Errorf("topo: unknown fabric kind %q (want %q or %q)", s.Kind, KindFlat, KindFatTree)
	}
	if s.Racks < 1 {
		return fmt.Errorf("topo: rack count must be positive (got %d)", s.Racks)
	}
	if s.Oversub <= 0 {
		return fmt.Errorf("topo: oversubscription ratio must be positive (got %g)", s.Oversub)
	}
	return nil
}

// link is one directed fabric link with its own occupancy and counters.
// Its name is derived from its id when asked for (Fabric.linkName).
type link struct {
	latencySec  float64
	bytesPerSec float64

	busyUntil float64
	msgs      uint64
	bytes     uint64
	busySec   float64
	queued    uint64
	queueSec  float64
}

// LinkStat is one link's public snapshot.
type LinkStat struct {
	ID          int     `json:"id"`
	Name        string  `json:"name"`
	LatencySec  float64 `json:"latency_sec"`
	BytesPerSec float64 `json:"bytes_per_sec"`
	Msgs        uint64  `json:"msgs"`
	Bytes       uint64  `json:"bytes"`
	// BusySec is total serialisation occupancy; BusySec/horizon is the
	// link's utilisation.
	BusySec float64 `json:"busy_sec"`
	// Queued counts transmissions that found the link busy; QueueSec is
	// the time they spent waiting for it.
	Queued   uint64  `json:"queued"`
	QueueSec float64 `json:"queue_sec"`
}

// Fabric is a built fat-tree: racks of nodes behind ToRs, ToRs joined by
// a spine. It implements msg.PathModel.
type Fabric struct {
	spec    Spec
	n       int
	racks   int
	perRack int

	// links holds node nd's access links at ids 2nd (up) and 2nd+1 (down),
	// then the uplink pairs of the racks not cut, in rack order.
	links      []link
	accessUp   []int // per node: node -> ToR
	accessDown []int // per node: ToR -> node
	uplinkUp   []int // per rack: ToR -> spine, -1 when cut
	uplinkDown []int // per rack: spine -> ToR, -1 when cut

	minLat      float64
	minLatValid bool
}

// Build constructs the fabric spec describes over n nodes. A flat spec
// builds nothing and returns (nil, nil): flat means the interconnect's own
// pipe.
func Build(s Spec, n int) (*Fabric, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Kind == KindFlat {
		return nil, nil
	}
	if n < 1 {
		return nil, fmt.Errorf("topo: need at least 1 node (got %d)", n)
	}
	perRack := (n + s.Racks - 1) / s.Racks
	racks := (n + perRack - 1) / perRack // drop racks left empty by the division
	f := &Fabric{
		spec: s, n: n, racks: racks, perRack: perRack,
		links:      make([]link, 0, 2*n+2*racks),
		accessUp:   make([]int, n),
		accessDown: make([]int, n),
		uplinkUp:   make([]int, racks),
		uplinkDown: make([]int, racks),
	}
	addLink := func(bw float64) int {
		f.links = append(f.links, link{latencySec: DefaultHopLatencySec, bytesPerSec: bw})
		return len(f.links) - 1
	}
	for nd := 0; nd < n; nd++ {
		f.accessUp[nd] = addLink(DefaultAccessBytesPerSec)
		f.accessDown[nd] = addLink(DefaultAccessBytesPerSec)
	}
	for _, r := range s.CutUplinks {
		if r < 0 || r >= racks {
			return nil, fmt.Errorf("topo: cut uplink names rack %d, fabric has racks 0..%d", r, racks-1)
		}
		f.uplinkUp[r], f.uplinkDown[r] = -1, -1
	}
	uplinkBW := float64(perRack) * DefaultAccessBytesPerSec / s.Oversub
	for r := 0; r < racks; r++ {
		if f.cut(r) {
			continue
		}
		f.uplinkUp[r] = addLink(uplinkBW)
		f.uplinkDown[r] = addLink(uplinkBW)
	}
	return f, nil
}

// cut reports whether rack's uplinks are cut.
func (f *Fabric) cut(rack int) bool { return f.uplinkUp[rack] < 0 }

// linkName names link id by what it joins: "n3->tor0", "tor0->n3",
// "tor1->spine" or "spine->tor1".
func (f *Fabric) linkName(id int) string {
	if id < 2*f.n {
		nd := id / 2
		if id%2 == 0 {
			return fmt.Sprintf("n%d->tor%d", nd, f.Rack(nd))
		}
		return fmt.Sprintf("tor%d->n%d", f.Rack(nd), nd)
	}
	for r := 0; r < f.racks; r++ {
		switch id {
		case f.uplinkUp[r]:
			return fmt.Sprintf("tor%d->spine", r)
		case f.uplinkDown[r]:
			return fmt.Sprintf("spine->tor%d", r)
		}
	}
	panic(fmt.Sprintf("topo: no link %d", id))
}

// Spec returns the spec the fabric was built from (defaults resolved).
func (f *Fabric) Spec() Spec { return f.spec }

// Nodes returns the number of nodes the fabric joins.
func (f *Fabric) Nodes() int { return f.n }

// Grow accepts up to the fabric's own node count: a built fabric joins a
// fixed set of nodes and cannot take more.
func (f *Fabric) Grow(n int) error {
	if n > f.n {
		return fmt.Errorf("topo: fabric joins %d nodes, cannot grow to %d", f.n, n)
	}
	return nil
}

// Racks returns the number of racks.
func (f *Fabric) Racks() int { return f.racks }

// PerRack returns the nodes-per-rack block size.
func (f *Fabric) PerRack() int { return f.perRack }

// Rack returns the rack node belongs to.
func (f *Fabric) Rack(node int) int { return node / f.perRack }

// AccessUp returns node's node->ToR link id.
func (f *Fabric) AccessUp(node int) int { return f.accessUp[node] }

// AccessDown returns node's ToR->node link id.
func (f *Fabric) AccessDown(node int) int { return f.accessDown[node] }

// UplinkUp returns rack's ToR->spine link id, or -1 when cut.
func (f *Fabric) UplinkUp(rack int) int { return f.uplinkUp[rack] }

// UplinkDown returns rack's spine->ToR link id, or -1 when cut.
func (f *Fabric) UplinkDown(rack int) int { return f.uplinkDown[rack] }

// route returns the directed link sequence from->to: empty for a self
// send, two hops in-rack, four hops cross-rack. ok is false when a cut
// uplink leaves the pair unrouteable.
func (f *Fabric) route(from, to int) (hops [4]int, nh int, ok bool) {
	if from < 0 || from >= f.n || to < 0 || to >= f.n {
		return hops, 0, false
	}
	if from == to {
		return hops, 0, true
	}
	rf, rt := f.Rack(from), f.Rack(to)
	if rf == rt {
		hops[0], hops[1] = f.accessUp[from], f.accessDown[to]
		return hops, 2, true
	}
	if f.cut(rf) || f.cut(rt) {
		return hops, 0, false
	}
	hops[0], hops[1] = f.accessUp[from], f.uplinkUp[rf]
	hops[2], hops[3] = f.uplinkDown[rt], f.accessDown[to]
	return hops, 4, true
}

// Route returns the link ids a from->to message traverses, and whether
// the pair is routeable at all (an empty routeable path is a self send).
func (f *Fabric) Route(from, to int) ([]int, bool) {
	hops, nh, ok := f.route(from, to)
	if !ok {
		return nil, false
	}
	out := make([]int, nh)
	copy(out, hops[:nh])
	return out, true
}

// Transmit charges the fabric for one from->to message of wire bytes
// starting at now and returns its delivery time: per-link queueing while a
// hop is busy, the sum of hop latencies for the cut-through header, plus
// serialisation of the full message on the path's bottleneck link. Each
// traversed link is held busy for its own serialisation time, so
// concurrent transfers sharing an (oversubscribed) uplink contend.
func (f *Fabric) Transmit(now float64, from, to int, wire int64) float64 {
	hops, nh, ok := f.route(from, to)
	if !ok {
		panic(fmt.Sprintf("topo: transmit over unrouteable pair %d->%d", from, to))
	}
	if nh == 0 {
		return now
	}
	t := now
	bottleneck := math.Inf(1)
	for _, id := range hops[:nh] {
		l := &f.links[id]
		if l.busyUntil > t {
			l.queued++
			l.queueSec += l.busyUntil - t
			t = l.busyUntil
		}
		tx := float64(wire) / l.bytesPerSec
		l.busyUntil = t + tx
		l.msgs++
		l.bytes += uint64(wire)
		l.busySec += tx
		if l.bytesPerSec < bottleneck {
			bottleneck = l.bytesPerSec
		}
		t += l.latencySec
	}
	return t + float64(wire)/bottleneck
}

// Estimate computes the same delivery time as Transmit against current
// occupancy without consuming any (the interconnect's RoundTripTime
// contract).
func (f *Fabric) Estimate(now float64, from, to int, wire int64) float64 {
	hops, nh, ok := f.route(from, to)
	if !ok {
		panic(fmt.Sprintf("topo: estimate over unrouteable pair %d->%d", from, to))
	}
	if nh == 0 {
		return now
	}
	t := now
	bottleneck := math.Inf(1)
	for _, id := range hops[:nh] {
		l := &f.links[id]
		if l.busyUntil > t {
			t = l.busyUntil
		}
		if l.bytesPerSec < bottleneck {
			bottleneck = l.bytesPerSec
		}
		t += l.latencySec
	}
	return t + float64(wire)/bottleneck
}

// MinLatency returns the minimum zero-byte one-way latency over all
// routeable distinct pairs — the lookahead floor for conservative parallel
// co-simulation over this fabric — or DefaultHopLatencySec when no pair is
// routeable. A route's latency is its hop latencies summed from the source,
// and a rounded sum never falls when one term grows, so the minimum comes
// from the racks rather than from all n² routes: a pair's best partner is
// the best source of the other end's rack or uplink, or the runner-up when
// the best is that end itself.
func (f *Fabric) MinLatency() float64 {
	if f.minLatValid {
		return f.minLat
	}
	lat := math.Inf(1)
	src := newBest() // over uncut racks: 0 + the rack's best access up + its uplink up
	for r := 0; r < f.racks; r++ {
		lo, hi := r*f.perRack, r*f.perRack+f.rackSize(r)
		up := newBest() // over the rack's nodes: 0 + access up
		for nd := lo; nd < hi; nd++ {
			up.offer(nd, 0.0+f.links[f.accessUp[nd]].latencySec)
		}
		for nd := lo; nd < hi; nd++ {
			lat = min(lat, up.except(nd)+f.links[f.accessDown[nd]].latencySec)
		}
		if !f.cut(r) {
			src.offer(r, up.v[0]+f.links[f.uplinkUp[r]].latencySec)
		}
	}
	for r := 0; r < f.racks; r++ {
		if f.cut(r) {
			continue
		}
		down := math.Inf(1)
		for nd := r * f.perRack; nd < r*f.perRack+f.rackSize(r); nd++ {
			down = min(down, f.links[f.accessDown[nd]].latencySec)
		}
		lat = min(lat, src.except(r)+f.links[f.uplinkDown[r]].latencySec+down)
	}
	if math.IsInf(lat, 1) {
		lat = DefaultHopLatencySec
	}
	f.minLat, f.minLatValid = lat, true
	return lat
}

// best keeps the two smallest values offered, +Inf while none, and who
// offered them.
type best struct {
	v  [2]float64
	id [2]int
}

func newBest() best { return best{v: [2]float64{math.Inf(1), math.Inf(1)}, id: [2]int{-1, -1}} }

func (b *best) offer(id int, v float64) {
	if v < b.v[0] {
		b.v[1], b.id[1] = b.v[0], b.id[0]
		b.v[0], b.id[0] = v, id
	} else if v < b.v[1] {
		b.v[1], b.id[1] = v, id
	}
}

// except returns the smallest value not offered by id.
func (b *best) except(id int) float64 {
	if b.id[0] != id {
		return b.v[0]
	}
	return b.v[1]
}

// Domain returns node's sharing domain: its rack. All link sharing in the
// fat tree is either node-private (access links) or rack-scoped (the ToR
// uplink pair used by every cross-rack route in or out of the rack), so
// racks are exactly the granularity at which groups can contend: disjoint
// node groups could race on a common ToR uplink, and the cluster resolves
// that by merging multi-rack groups that share a rack.
func (f *Fabric) Domain(node int) int { return f.Rack(node) }

// NumDomains returns the rack count.
func (f *Fabric) NumDomains() int { return f.Racks() }

// SetLinkLatency overrides one link's latency (asymmetric-fabric tests)
// and invalidates the cached MinLatency.
func (f *Fabric) SetLinkLatency(id int, sec float64) {
	f.links[id].latencySec = sec
	f.minLatValid = false
}

// Legs returns the directed node pairs whose route traverses link id, in
// deterministic (from, to) order — the composition surface for per-link
// fault windows: cutting a fabric link means severing exactly these legs.
func (f *Fabric) Legs(id int) [][2]int {
	var legs [][2]int
	for from := 0; from < f.n; from++ {
		for to := 0; to < f.n; to++ {
			hops, nh, ok := f.route(from, to)
			if !ok {
				continue
			}
			for _, h := range hops[:nh] {
				if h == id {
					legs = append(legs, [2]int{from, to})
					break
				}
			}
		}
	}
	return legs
}

// UnrouteablePairs returns every ordered distinct pair a cut uplink
// disconnects, in (from, to) order: the pairs that cross racks where
// either rack's uplinks are cut.
func (f *Fabric) UnrouteablePairs() [][2]int {
	var pairs [][2]int
	for from := 0; from < f.n; from++ {
		for to := 0; to < f.n; to++ {
			if rf, rt := f.Rack(from), f.Rack(to); rf != rt && (f.cut(rf) || f.cut(rt)) {
				pairs = append(pairs, [2]int{from, to})
			}
		}
	}
	return pairs
}

// Unrouteable returns how many pairs UnrouteablePairs lists and the first
// of them, from the racks alone: the nodes of a rack all reach the same
// racks, so rack pairs in order meet the first pair first.
func (f *Fabric) Unrouteable() (count int, first [2]int) {
	for a := 0; a < f.racks; a++ {
		for b := 0; b < f.racks; b++ {
			if a == b || !f.cut(a) && !f.cut(b) {
				continue
			}
			if count == 0 {
				first = [2]int{a * f.perRack, b * f.perRack}
			}
			count += f.rackSize(a) * f.rackSize(b)
		}
	}
	return count, first
}

// rackSize returns how many nodes rack holds (the last may hold fewer).
func (f *Fabric) rackSize(rack int) int { return min(f.perRack, f.n-rack*f.perRack) }

// LinkStats snapshots every link's counters in link-id order.
func (f *Fabric) LinkStats() []LinkStat {
	out := make([]LinkStat, len(f.links))
	for i := range f.links {
		l := &f.links[i]
		out[i] = LinkStat{
			ID: i, Name: f.linkName(i),
			LatencySec: l.latencySec, BytesPerSec: l.bytesPerSec,
			Msgs: l.msgs, Bytes: l.bytes, BusySec: l.busySec,
			Queued: l.queued, QueueSec: l.queueSec,
		}
	}
	return out
}

// UplinkStats snapshots only the ToR<->spine uplinks, sorted by busy time
// descending (the contention hot list).
func (f *Fabric) UplinkStats() []LinkStat {
	all := f.LinkStats()
	var out []LinkStat
	for r := 0; r < f.racks; r++ {
		if f.uplinkUp[r] >= 0 {
			out = append(out, all[f.uplinkUp[r]])
		}
		if f.uplinkDown[r] >= 0 {
			out = append(out, all[f.uplinkDown[r]])
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].BusySec > out[j].BusySec })
	return out
}
