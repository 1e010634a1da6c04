// Package fault provides deterministic, seeded fault plans for the
// simulated datacenter: message loss, duplication and latency jitter on
// the interconnect, per-link degradation windows, and scheduled node
// crash/recovery events. The paper's testbed assumes a perfect Dolphin
// PCIe link and always-alive kernels; at warehouse scale neither holds,
// so the rest of the stack (msg, dsm, kernel, sched) is exercised under
// the chaos this package injects.
//
// Every decision is a pure function of (plan seed, message identity), so
// a run under a plan is exactly reproducible: two runs of the same
// workload with the same seed see the same drops, the same duplicates and
// the same jitter, message for message.
package fault

import "sort"

// Plan describes the chaos to inject into one run.
type Plan struct {
	// Seed selects the deterministic pseudo-random stream.
	Seed int64
	// DropProb is the baseline per-message-leg loss probability.
	DropProb float64
	// DupProb is the probability a delivered message is duplicated.
	DupProb float64
	// JitterSec is the maximum extra one-way latency added to a delivered
	// message (uniformly distributed in [0, JitterSec)).
	JitterSec float64
	// Windows lists per-link degradation windows layered on the baseline.
	Windows []Window
	// Partitions lists network-partition windows: node-set bipartitions that
	// sever whole link classes, on top of the per-leg faults above.
	Partitions []PartitionWindow
	// Crashes lists scheduled node outages.
	Crashes []Crash
	// Slowdowns lists gray-failure CPU degradation windows: the node keeps
	// running and answering probes, just slower.
	Slowdowns []Slowdown
}

// Window degrades one directed link (or all links) for a time span. While
// active, the worse of the window's and the plan's baseline parameters
// applies.
type Window struct {
	// From/To select the directed link; -1 matches any node.
	From, To int
	// Start/End bound the window in simulated seconds: [Start, End).
	Start, End float64
	// DropProb is the loss probability inside the window.
	DropProb float64
	// JitterSec is the jitter bound inside the window.
	JitterSec float64
}

// PartitionWindow cuts the rack for a time span. Two compositions:
//
//   - GroupA splits the rack into two sides; every message leg crossing
//     the cut while the window is active is lost, traffic within a side is
//     untouched.
//   - Legs severs an explicit set of directed node legs instead — the
//     per-link form. A topology-aware plan cuts one fabric link (say a
//     ToR->spine uplink) by listing exactly the legs routed over it
//     (topo.Fabric.Legs), which no node-set bipartition can express: the
//     reverse direction and in-rack traffic keep flowing.
//
// Unlike a Crash, partitioned nodes keep executing — only the severed
// communication dies, which is exactly the condition that manufactures
// split-brain membership views.
type PartitionWindow struct {
	// GroupA lists one side's nodes; every node not listed is on side B.
	// Ignored when Legs is non-empty.
	GroupA []int
	// Legs lists the directed from->to node legs the window severs; when
	// non-empty it replaces the GroupA bipartition. OneWay does not apply
	// (each leg is already directed — list both directions to cut a link
	// pair).
	Legs [][2]int
	// Start/HealAt bound the cut in simulated seconds: [Start, HealAt).
	// HealAt <= Start means the partition never heals.
	Start, HealAt float64
	// OneWay makes the cut asymmetric: only A->B legs are severed, B->A
	// still delivers (a half-open failure, e.g. a dead transmit queue).
	OneWay bool
}

// healsAt reports the window's heal time (ok=false: never).
func (w *PartitionWindow) healsAt() (float64, bool) {
	if w.HealAt <= w.Start {
		return 0, false
	}
	return w.HealAt, true
}

// cuts reports whether the window severs the directed from->to leg at time
// at, given the precomputed side-A membership and severed-leg sets.
func cuts(w *PartitionWindow, inA map[int]bool, legs map[[2]int]bool, at float64, from, to int) bool {
	if at < w.Start {
		return false
	}
	if heal, ok := w.healsAt(); ok && at >= heal {
		return false
	}
	if legs != nil {
		return legs[[2]int{from, to}]
	}
	fa, ta := inA[from], inA[to]
	if fa == ta {
		return false // same side
	}
	if w.OneWay && !fa {
		return false // B->A survives an asymmetric cut
	}
	return true
}

// Slowdown schedules a gray CPU failure: for [Start, End) the node's
// cores retire cycles Factor times slower than their nominal clock. The
// node stays alive, answers probes and makes progress — exactly the
// failure mode a fail-stop detector cannot convict, which is why the
// health layer scores it from the retire rate instead.
type Slowdown struct {
	Node       int
	Start, End float64
	// Factor >= 1 multiplies the wall time every cycle takes. 1 is a no-op.
	Factor float64
}

// Slow returns the effective CPU slowdown factor for node at time at: the
// worst Factor among active windows, or exactly 1 when none is active (so
// the unfaulted path stays bit-identical).
func (in *Injector) Slow(node int, at float64) float64 {
	f := 1.0
	for _, s := range in.plan.Slowdowns {
		if s.Node != node || at < s.Start || at >= s.End {
			continue
		}
		if s.Factor > f {
			f = s.Factor
		}
	}
	return f
}

// Crash schedules a fail-stop node outage. The model is a machine that
// stops executing and falls off the interconnect, then rejoins with its
// memory intact — threads frozen on the node resume at RecoverAt, and DSM
// pages it owns become reachable again. RecoverAt <= At means the node
// never comes back; work depending on it degrades to an error instead of
// hanging forever.
type Crash struct {
	Node      int
	At        float64
	RecoverAt float64
}

// Injector evaluates a Plan. It satisfies the msg.Injector interface and
// is shared between the interconnect (message fates) and the cluster
// (crash schedule).
type Injector struct {
	plan Plan
	// partA[i] is Partitions[i].GroupA as a set, precomputed so per-message
	// cut checks are O(windows).
	partA []map[int]bool
	// partLegs[i] is Partitions[i].Legs as a set (nil when the window is a
	// GroupA bipartition).
	partLegs []map[[2]int]bool
}

// NewInjector builds an injector for plan. The plan is copied and its
// crash schedule sorted by time.
func NewInjector(plan Plan) *Injector {
	p := plan
	p.Windows = append([]Window(nil), plan.Windows...)
	p.Partitions = append([]PartitionWindow(nil), plan.Partitions...)
	p.Crashes = append([]Crash(nil), plan.Crashes...)
	p.Slowdowns = append([]Slowdown(nil), plan.Slowdowns...)
	sort.Slice(p.Crashes, func(i, j int) bool { return p.Crashes[i].At < p.Crashes[j].At })
	in := &Injector{plan: p}
	for _, w := range p.Partitions {
		set := make(map[int]bool, len(w.GroupA))
		for _, n := range w.GroupA {
			set[n] = true
		}
		in.partA = append(in.partA, set)
		var legs map[[2]int]bool
		if len(w.Legs) > 0 {
			legs = make(map[[2]int]bool, len(w.Legs))
			for _, l := range w.Legs {
				legs[l] = true
			}
		}
		in.partLegs = append(in.partLegs, legs)
	}
	return in
}

// LinkCut reports whether an active partition window severs the directed
// from->to leg at time at (msg.Injector's partition view, with
// LinkClearAt).
func (in *Injector) LinkCut(at float64, from, to int) bool {
	for i := range in.plan.Partitions {
		if cuts(&in.plan.Partitions[i], in.partA[i], in.partLegs[i], at, from, to) {
			return true
		}
	}
	return false
}

// LinkClearAt returns the earliest time >= at at which no partition window
// cuts the from->to leg. ok=false means a never-healing window blocks the
// leg forever.
func (in *Injector) LinkClearAt(at float64, from, to int) (float64, bool) {
	t := at
	// Each pass advances t to some window's heal time; a window can force an
	// advance at most once, so passes are bounded by the window count.
	for pass := 0; pass <= len(in.plan.Partitions); pass++ {
		blocked := false
		for i := range in.plan.Partitions {
			w := &in.plan.Partitions[i]
			if !cuts(w, in.partA[i], in.partLegs[i], t, from, to) {
				continue
			}
			heal, ok := w.healsAt()
			if !ok {
				return 0, false
			}
			if heal > t {
				t = heal
				blocked = true
			}
		}
		if !blocked {
			break
		}
	}
	return t, true
}

// Plan returns the injector's normalised plan.
func (in *Injector) Plan() Plan { return in.plan }

// rand01 derives a uniform [0,1) value from the seed and a decision
// identity via a splitmix64-style finalizer. Distinct (seq, salt, link)
// triples give independent draws; the same triple always gives the same
// draw.
func (in *Injector) rand01(seq, salt, link uint64) float64 {
	x := uint64(in.plan.Seed)*0x9e3779b97f4a7c15 + seq*0xbf58476d1ce4e5b9 +
		salt*0x94d049bb133111eb + link*0xd6e8feb86659fd93
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// linkParams returns the effective drop probability and jitter bound for a
// message on from->to at time now, folding in any active windows.
func (in *Injector) linkParams(now float64, from, to int) (drop, jitter float64) {
	drop, jitter = in.plan.DropProb, in.plan.JitterSec
	for _, w := range in.plan.Windows {
		if (w.From != -1 && w.From != from) || (w.To != -1 && w.To != to) {
			continue
		}
		if now < w.Start || now >= w.End {
			continue
		}
		if w.DropProb > drop {
			drop = w.DropProb
		}
		if w.JitterSec > jitter {
			jitter = w.JitterSec
		}
	}
	return drop, jitter
}

// Fate decides a message leg's fate: lost, duplicated, and extra delivery
// latency. seq must be unique per decision on the directed from->to link
// (the interconnect numbers each link independently); the link identity is
// folded into the stream so equal sequence numbers on different links draw
// independent fates. The result is deterministic in (seed, from, to, seq).
func (in *Injector) Fate(now float64, from, to int, seq uint64) (drop, dup bool, jitter float64) {
	link := uint64(uint32(from))<<32 | uint64(uint32(to))
	dp, js := in.linkParams(now, from, to)
	if dp > 0 && in.rand01(seq, 1, link) < dp {
		return true, false, 0
	}
	if in.plan.DupProb > 0 && in.rand01(seq, 2, link) < in.plan.DupProb {
		dup = true
	}
	if js > 0 {
		jitter = js * in.rand01(seq, 3, link)
	}
	return false, dup, jitter
}

// NodeDown reports whether node is inside a crash outage at time at.
func (in *Injector) NodeDown(node int, at float64) bool {
	for _, c := range in.plan.Crashes {
		if c.Node != node || at < c.At {
			continue
		}
		if c.RecoverAt <= c.At || at < c.RecoverAt {
			return true
		}
	}
	return false
}

// NodeRecoverAt returns when a currently-down node comes back. It returns
// (0, false) when the node is up at the given time or when the outage is
// permanent — callers distinguish the two with NodeDown.
func (in *Injector) NodeRecoverAt(node int, at float64) (float64, bool) {
	for _, c := range in.plan.Crashes {
		if c.Node != node || at < c.At {
			continue
		}
		if c.RecoverAt <= c.At {
			return 0, false
		}
		if at < c.RecoverAt {
			return c.RecoverAt, true
		}
	}
	return 0, false
}
