package kernel

// This file adapts Cluster to sim.Model, the interface the extracted time
// engines (internal/sim) schedule against. The sequential backend reproduces
// the loop Cluster.Step used to own; the parallel backend additionally needs
// the sharing-group partition and the soundness horizon computed here.

import (
	"sync"

	"heterodc/internal/msg"
	"heterodc/internal/sim"
)

// NumNodes returns the cluster's node count.
func (cl *Cluster) NumNodes() int { return len(cl.Kernels) }

// ReadyTime returns when node can next make progress, or >= sim.Inf.
func (cl *Cluster) ReadyTime(node int) float64 { return cl.Kernels[node].readyTime() }

// StepNode advances node by one kernel quantum.
func (cl *Cluster) StepNode(node int) { cl.Kernels[node].step() }

// SkipTo drags node's clock forward to t without executing work. It is the
// engine's own write, so unlike Kernel.skipTo it reports nothing, and it
// compares against the kernel's own clock, not one raised by a pending drag
// (sim.Feed).
func (cl *Cluster) SkipTo(node int, t float64) {
	if k := cl.Kernels[node]; t > k.own {
		k.own = t
	}
}

// Now returns node's local clock.
func (cl *Cluster) Now(node int) float64 { return cl.Kernels[node].now() }

// NextWake returns node's earliest pending wake or message delivery.
func (cl *Cluster) NextWake(node int) float64 { return cl.Kernels[node].nextEventTime() }

// crashEventTime returns the time of node's next scheduled crash/recovery
// transition, or inf.
func (cl *Cluster) crashEventTime(node int) float64 {
	if cl.eventIdx == nil || cl.eventIdx[node] >= len(cl.events[node]) {
		return inf
	}
	return cl.events[node][cl.eventIdx[node]].time
}

// memberDueTime returns the time of node's next membership action (probe
// round, heartbeat emission or suspicion check), or inf. The gate is
// per-node service attachment, not cluster-wide liveness: membership runs
// whenever a service is installed, even on an idle fleet. (An earlier
// cluster-wide HasLiveProcs gate silenced every node's emission the moment
// the last process exited, so a between-jobs fleet fell silent in lockstep
// and mass-suspected itself when the next job arrived.)
func (cl *Cluster) memberDueTime(node int) float64 {
	if cl.member == nil {
		return inf
	}
	return cl.member.NextDue(node)
}

// NextEvent returns the time of node's next control event — a scheduled
// crash/recovery transition, a membership action or a timer firing — or inf.
func (cl *Cluster) NextEvent(node int) float64 {
	t := cl.crashEventTime(node)
	if m := cl.memberDueTime(node); m < t {
		t = m
	}
	if d := cl.timerDueTime(node); d < t {
		t = d
	}
	return t
}

// ApplyEvent executes node's next due control event. Ties at the same
// instant resolve crash/recovery first (the detector must observe the
// transition — a recovered node emits immediately, a crashed one falls
// silent — before acting on it), then membership, then timer firings (an
// arrival admitted at the instant of a crash must see the node already
// down so placement skips it).
func (cl *Cluster) ApplyEvent(node int) {
	evT := cl.crashEventTime(node)
	memT := cl.memberDueTime(node)
	timT := cl.timerDueTime(node)
	if evT <= memT && evT <= timT {
		ev := cl.events[node][cl.eventIdx[node]]
		cl.eventIdx[node]++
		cl.changed(node)
		cl.applyNodeEvent(ev)
		return
	}
	if memT <= timT {
		k := cl.Kernels[node]
		// If the node's clock already passed the due time (an idle gap was
		// skipped), the membership action runs at the clock, not in the past.
		k.skipTo(memT)
		cl.member.RunDue(node, k.now())
		return
	}
	cl.fireTimer(timT)
}

// Frontier returns the safe time frontier (min kernel clock).
func (cl *Cluster) Frontier() float64 { return cl.Time() }

// NoteFrontier publishes the frontier to the OnAdvance observer. The engine
// calls it only sequentially or at an epoch barrier, so observers (the power
// meter) see a monotone frontier without locking; it usually knows the
// frontier already (sim.Feed.Frontier), which spares a walk over every
// kernel per quantum. A barrier also ends any grouped window, so the
// grouped-execution flag drops here: inline work the engine runs after the
// barrier (the parallel Run overrun tail) follows the global sequential
// rule and must not see a stale window partition.
func (cl *Cluster) NoteFrontier() {
	cl.parGroups = false
	f, ok := cl.feed.Frontier()
	if !ok {
		f = cl.Time()
	}
	if f > cl.lastFrontier {
		cl.lastFrontier = f
		if cl.OnAdvance != nil {
			cl.OnAdvance(f)
		}
	}
}

// Horizon reports whether group-parallel execution is sound for a window
// starting at start (sim.Model): sim.Inf when it is, sim.NegInf when a layer
// needs the global sequential order for the whole window. The one layer
// that can is a membership service that is not quiet — suspicion machinery,
// confirmation sets and non-Alive gossip read and write views across sharing
// groups. Everything else is handled at its own layer:
//
//   - Control events (crash/recovery transitions, membership actions, timer
//     firings) read and steer global state, but the engine ends every
//     grouped window at the next one and applies it in the exact sequential
//     order (sim.Parallel), so none ever runs inside a window.
//   - The tracer keeps per-node streams; each node's stream is
//     engine-invariant and the sink merges canonically on read.
//   - A quiet membership service only moves heartbeats whose endpoints
//     Groups() already folded together, and quietness is preserved until
//     the next protocol action — a control event.
//   - A fabric constrains Groups() (rack-sharing partitions fold) rather
//     than the horizon.
//
// OnAdvance needs nothing: the engine samples the frontier only at
// barriers, and the power meter integrates energy from counter deltas.
func (cl *Cluster) Horizon(start float64) float64 {
	// Until Groups() runs for the next window, migration sees one group.
	cl.parGroups = false
	if cl.member != nil && !cl.member.Quiet() {
		return sim.NegInf
	}
	return inf
}

// markFootprint marks every node in p's sharing set: nodes the kernel could
// read or write on p's behalf before the next barrier. That is its origin
// (filesystem and break authority), every live thread's host, the source of
// any migration in flight (a destination crash rehomes the thread there),
// every node holding resident DSM pages (transfer/invalidation endpoints),
// and the target of any requested-but-unconsumed migration. A program that
// can issue direct migrate syscalls (link.Image.DirectMigrate) claims the
// whole cluster: any quantum may name any node as a destination, and the
// sequential order lets it go there.
func (cl *Cluster) markFootprint(p *Process, mark []bool) {
	if p.Img != nil && p.Img.DirectMigrate {
		for n := range mark {
			mark[n] = true
		}
		return
	}
	mark[p.Origin] = true
	for _, t := range p.threads {
		if t.State == Exited {
			continue
		}
		mark[t.Node] = true
		if t.State == InFlight {
			mark[t.inflightFrom] = true
		}
	}
	for n := range cl.Kernels {
		if p.Space.HasResident(n) {
			mark[n] = true
		}
	}
	for _, tgt := range p.pendingMig {
		if tgt >= 0 && tgt < len(cl.Kernels) {
			mark[tgt] = true
		}
	}
}

// footprintScratch recycles the mark/node buffers footprint burns through.
// It is a sync.Pool, not cluster-owned scratch, because footprint's main
// caller is reapProcess, which group workers run concurrently — each caller
// needs its own buffers, but a process exit per epoch must not cost two
// heap allocations forever.
var footprintScratch = sync.Pool{New: func() interface{} { return &fpScratch{} }}

type fpScratch struct {
	mark  []bool
	nodes []int
}

// release recycles the scratch; the node list footprint returned with it is
// dead afterwards.
func (fs *fpScratch) release() { footprintScratch.Put(fs) }

// footprint returns p's sharing set as a sorted node list valid until the
// returned scratch is released.
func (cl *Cluster) footprint(p *Process) ([]int, *fpScratch) {
	fs := footprintScratch.Get().(*fpScratch)
	n := len(cl.Kernels)
	if cap(fs.mark) < n {
		fs.mark = make([]bool, n)
		fs.nodes = make([]int, 0, n)
	}
	mark := fs.mark[:n]
	for i := range mark {
		mark[i] = false
	}
	cl.markFootprint(p, mark)
	out := fs.nodes[:0]
	for i, m := range mark {
		if m {
			out = append(out, i)
		}
	}
	fs.nodes = out
	return out, fs
}

// Groups partitions the nodes into sharing groups: the connected components
// of the union of three per-layer sharing contributions —
//
//  1. every live process's footprint (threads, DSM residents, migrations);
//  2. every in-flight message's endpoints, plus any extra nodes its payload
//     names (msg.GroupPeers — a SWIM indirect probe in flight binds its
//     relay to both the origin and the target). This folds membership
//     traffic: within a window a node only ever sends to peers it already
//     shares a pending message with, by induction from the barrier state;
//  3. an installed fabric's sharing domains (racks): two
//     multi-rack groups that touch the same rack share that rack's ToR
//     uplinks, so they fold into one. Single-rack groups ride only their
//     own access links and never fold — which is exactly why a rack-local
//     workload scales with the rack count even on an oversubscribed
//     fat-tree.
//
// Disjoint groups then share no mutable state — kernels, run queues, DSM
// directories, per-link and per-node interconnect shards, per-node trace
// and fence shards — so the parallel engine may run them concurrently.
// Both the list and each group are sorted ascending. All scratch is
// cluster-owned and reused: barriers run every epoch and this must not
// allocate in steady state.
func (cl *Cluster) Groups() [][]int { return cl.groups(nil) }

// GroupMerge records one union the partition performed: the two nodes whose
// components were joined and the layer that forced it ("footprint",
// "in-flight" or "fabric"). The merge list is a spanning forest of the
// sharing graph — every group of size k appears as exactly k-1 merges — so
// it explains why the partition is as coarse as it is: remove a layer's
// merges and the groups it folded fall apart.
type GroupMerge struct {
	A     int    `json:"a"`
	B     int    `json:"b"`
	Layer string `json:"layer"`
}

// GroupDump is the serialisable form of one GroupReport sample: the
// partition at a simulated instant plus the merges that explain it. hdcrun
// -groups-out writes the coarsest sample a run produced; hdcinspect -groups
// renders it.
type GroupDump struct {
	Time   float64      `json:"time"`
	Nodes  int          `json:"nodes"`
	Groups [][]int      `json:"groups"`
	Merges []GroupMerge `json:"merges"`
}

// GroupReport is the explained form of Groups(): the partition plus the
// per-layer merges that produced it. Unlike Groups, the returned slices are
// freshly allocated and safe to retain.
func (cl *Cluster) GroupReport() ([][]int, []GroupMerge) {
	var merges []GroupMerge
	gs := cl.groups(func(layer string, a, b int) {
		merges = append(merges, GroupMerge{A: a, B: b, Layer: layer})
	})
	out := make([][]int, len(gs))
	for i, g := range gs {
		out[i] = append([]int(nil), g...)
	}
	return out, merges
}

// groups computes the partition; onMerge (nil on the hot path) observes
// every effective union with the layer that asked for it.
func (cl *Cluster) groups(onMerge func(layer string, a, b int)) [][]int {
	n := len(cl.Kernels)
	if len(cl.groupOf) != n {
		cl.groupOf = make([]int, n)
		cl.ufParent = make([]int, n)
		cl.ufMark = make([]bool, n)
		cl.ufIdx = make([]int, n)
		cl.ufFirstDom = make([]int, n)
		cl.ufMulti = make([]bool, n)
		cl.groupArena = make([]int, n)
	}
	parent := cl.ufParent
	for i := range parent {
		parent[i] = i
	}
	cl.ufOnMerge = onMerge
	cl.ufLayer = "footprint"

	// 1. Process footprints.
	mark := cl.ufMark
	for _, p := range cl.procs {
		if p.exited {
			continue
		}
		for i := range mark {
			mark[i] = false
		}
		cl.markFootprint(p, mark)
		first := -1
		for i, m := range mark {
			if !m {
				continue
			}
			if first < 0 {
				first = i
				continue
			}
			cl.ufUnion(first, i)
		}
	}

	// 2. In-flight messages. Heartbeats and probes between barrier and
	// delivery bind their endpoints (and payload-named peers) into one
	// group, which is what lets a quiet membership service ride inside
	// grouped windows instead of completing the sharing graph.
	cl.ufLayer = "in-flight"
	if cl.pendingVisit == nil {
		cl.gpVisit = func(peer int) {
			if nn := len(cl.Kernels); peer >= 0 && peer < nn && cl.gpTo >= 0 && cl.gpTo < nn {
				cl.ufUnion(cl.gpTo, peer)
			}
		}
		cl.pendingVisit = func(m *msg.Message) {
			nn := len(cl.Kernels)
			if m.From >= 0 && m.From < nn && m.To >= 0 && m.To < nn {
				cl.ufUnion(m.From, m.To)
			}
			if gp, ok := m.Payload.(msg.GroupPeers); ok {
				cl.gpTo = m.To
				gp.GroupPeers(cl.gpVisit)
			}
		}
	}
	cl.IC.ForEachPending(cl.pendingVisit)

	// 3. Fabric sharing domains: fold multi-rack groups that share a rack.
	cl.ufLayer = "fabric"
	if dom := cl.IC.Path(); dom != nil {
		cl.foldDomains(dom)
	}
	cl.ufOnMerge = nil

	// Ascending scan with min-root union keeps every group sorted and the
	// group list ordered by smallest member. The groups share one arena and
	// the list header is reused, so a stable partition costs zero heap.
	idx := cl.ufIdx
	for i := range idx {
		idx[i] = -1
	}
	groups := cl.groupList[:0]
	for i := 0; i < n; i++ {
		if r := ufFind(parent, i); idx[r] < 0 {
			idx[r] = len(groups)
			groups = append(groups, nil)
		}
	}
	if cap(cl.groupArena) < n {
		cl.groupArena = make([]int, n)
	}
	arena := cl.groupArena[:n]
	// Two passes over the arena: group sizes first (borrowing the arena as
	// the counters), then offsets and fill, so each group is a contiguous
	// ascending sub-slice and a stable partition costs zero heap.
	counts := arena[:len(groups)]
	for g := range counts {
		counts[g] = 0
	}
	for i := 0; i < n; i++ {
		g := idx[ufFind(parent, i)]
		cl.groupOf[i] = g
		counts[g]++
	}
	off := 0
	for g, c := range counts {
		groups[g] = arena[off : off : off+c]
		off += c
	}
	for i := 0; i < n; i++ {
		g := cl.groupOf[i]
		groups[g] = append(groups[g], i)
	}
	cl.groupArena = arena
	cl.groupList = groups
	cl.parGroups = len(groups) > 1
	return groups
}

// ufFind is the union-find root lookup with path halving.
// ufUnion joins a's and b's components (min root wins, keeping groups
// sorted), reporting an effective merge to ufOnMerge with the layer that
// asked for it. A method over cluster fields, not a closure, so the hot
// path stays allocation-free.
func (cl *Cluster) ufUnion(a, b int) {
	parent := cl.ufParent
	ra, rb := ufFind(parent, a), ufFind(parent, b)
	if ra != rb {
		if rb < ra {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		if cl.ufOnMerge != nil {
			cl.ufOnMerge(cl.ufLayer, a, b)
		}
	}
}

func ufFind(parent []int, x int) int {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// foldDomains merges groups whose routes could contend on a shared fabric
// link. A group confined to one rack uses only its members' private access
// links; a group spanning racks also uses the ToR uplinks of every rack it
// touches. So two groups must fold exactly when both span multiple racks
// and touch a common rack — transitively, via one anchor root per domain.
func (cl *Cluster) foldDomains(dom msg.PathModel) {
	n := len(cl.Kernels)
	parent := cl.ufParent
	firstDom := cl.ufFirstDom
	multi := cl.ufMulti
	for i := 0; i < n; i++ {
		firstDom[i] = -1
		multi[i] = false
	}
	for i := 0; i < n; i++ {
		r := ufFind(parent, i)
		d := dom.Domain(i)
		if firstDom[r] < 0 {
			firstDom[r] = d
		} else if firstDom[r] != d {
			multi[r] = true
		}
	}
	nd := dom.NumDomains()
	if cap(cl.domAnchor) < nd {
		cl.domAnchor = make([]int, nd)
	}
	anchor := cl.domAnchor[:nd]
	for d := range anchor {
		anchor[d] = -1
	}
	for i := 0; i < n; i++ {
		if !multi[ufFind(parent, i)] {
			continue
		}
		d := dom.Domain(i)
		if d < 0 || d >= nd {
			continue
		}
		if anchor[d] < 0 {
			anchor[d] = i
		} else {
			cl.ufUnion(anchor[d], i)
		}
	}
}
