package kernel

// This file is the cluster's side of the membership service
// (internal/member's SWIM detector): the Membership hook it drives, the
// per-node incarnation registry, the incarnation fence applied at message
// delivery, and the declared-death teardown that replaces the omniscient
// NodeDown oracle for detector-equipped clusters.

import (
	"fmt"

	"heterodc/internal/mem"
	"heterodc/internal/msg"
)

// Membership is the failure-detector hook a cluster drives. A service
// (internal/member's SWIM detector) assesses each node's liveness via probes
// charged through the interconnect and maintains per-observer suspicion
// state, all of it indexed by the acting node (single writer inside a
// window). Protocol actions (RunDue, crash/recovery observations) are
// control events, and every control event is a window barrier, so they
// always execute in the global sequential order and need no locking.
// Deliver is called from concurrent sharing-group workers, but only while
// the service is Quiet.
type Membership interface {
	// NextDue returns the simulated time of node's next membership action
	// (probe round or suspicion-deadline check), or >= sim.Inf.
	NextDue(node int) float64
	// ReportDue installs the hook the service calls whenever NextDue(node)
	// would return a new value (from a sharing group's worker only for nodes
	// of that group — Deliver's own), which lets the engine skip nodes whose
	// membership schedule did not move.
	ReportDue(changed func(node int))
	// RunDue performs node's membership actions due at now.
	RunDue(node int, now float64)
	// Deliver hands node an arrived THeartbeat message, and a crashing
	// node (already down) every one its queue held. m is valid only for
	// the call.
	Deliver(to int, m *msg.Message)
	// Quiet reports whether the protocol currently holds no global-order
	// machinery — every view and every gossip entry Alive, no deferred
	// verdicts. While quiet, the only cross-node activity is payload
	// traffic whose endpoints Groups() folds together (via the in-flight
	// scan and msg.GroupPeers), and protocol actions are window barriers,
	// so grouped windows provably preserve quietness. A service that is not
	// quiet collapses the engine to one inline group (Cluster.Horizon).
	Quiet() bool
	// Suspected reports observer's current view of target: true when the
	// target is suspected (Suspect) or death was declared (Dead).
	Suspected(observer, target int) bool
	// SuspectedAny reports whether any live observer currently suspects
	// target.
	SuspectedAny(target int) bool
	// NodeCrashed observes a physical crash: node stops emitting and
	// checking until recovery. Its peers learn only through silence.
	NodeCrashed(node int, now float64)
	// NodeRecovered observes a physical recovery under the (possibly
	// bumped) incarnation inc; node resumes emitting immediately and its
	// own stale views are reset.
	NodeRecovered(node int, inc uint64, now float64)
}

// initMembership sizes the incarnation registry; every node starts life as
// incarnation 1 and deadInc 0 ("never declared dead"), so the fence admits
// everything until a detector actually declares a death.
func (cl *Cluster) initMembership() {
	n := len(cl.Kernels)
	cl.incarnation = make([]uint64, n)
	for i := range cl.incarnation {
		cl.incarnation[i] = 1
	}
	cl.deadInc = make([]uint64, n)
	cl.messagesFenced = make([]uint64, n)
	cl.staleUnfenced = make([]uint64, n)
}

// SetMembership installs a membership service. Pass nil to detach and fall
// back to the NodeDown oracle. Every node's NextEvent may move, so the
// engine's index is rebuilt.
func (cl *Cluster) SetMembership(m Membership) {
	cl.member = m
	if m != nil {
		m.ReportDue(cl.changed)
	}
	cl.feed.Rebuild()
}

// Incarnation returns node's current incarnation number. Incarnations start
// at 1 and increase only when a node rejoins after being declared dead, so
// "inc <= deadInc" exactly characterises messages addressed to a retired
// incarnation.
func (cl *Cluster) Incarnation(node int) uint64 { return cl.incarnation[node] }

// DeadIncarnation returns the highest incarnation of node declared dead
// (0: never).
func (cl *Cluster) DeadIncarnation(node int) uint64 { return cl.deadInc[node] }

// RejoinNode bumps node's incarnation after the node itself learns — from
// membership gossip, not a physical recovery — that its current incarnation
// was declared dead while it kept running: the partitioned-but-alive false
// positive. The bump mirrors RecoverNode's rejoin logic; everything
// addressed to the retired incarnation stays fenced while the new
// incarnation's traffic readmits the node everywhere. Returns the current
// incarnation (bumped or not).
func (cl *Cluster) RejoinNode(node int, at float64) uint64 {
	if cl.incarnation == nil || node < 0 || node >= len(cl.incarnation) {
		return 0
	}
	if cl.deadInc[node] >= cl.incarnation[node] {
		cl.incarnation[node]++
		cl.tracefNode(node, at, "rejoin", "node %d outlived its declared death, rejoins as incarnation %d", node, cl.incarnation[node])
	}
	return cl.incarnation[node]
}

// HasLiveProcs reports whether any spawned process has not exited.
func (cl *Cluster) HasLiveProcs() bool {
	for _, p := range cl.procs {
		if !p.exited {
			return true
		}
	}
	return false
}

// NodeUnavailable reports whether node should be avoided for placement and
// migration targets. With a membership service installed this is the
// detector's verdict — any live observer suspecting the node — which lags
// reality by the detection latency and may be wrong; without one it falls
// back to the NodeDown oracle, preserving pre-detector behaviour.
func (cl *Cluster) NodeUnavailable(node int) bool {
	if cl.member != nil {
		return cl.member.SuspectedAny(node)
	}
	return cl.NodeDown(node)
}

// FenceStats returns the incarnation-fence counters: messages dropped for
// addressing a declared-dead incarnation, and stale-incarnation messages
// that were delivered anyway (structurally impossible — the counter exists
// so chaos experiments can assert it stayed zero). The counters are
// sharded by receiving node (single writer inside a parallel window); the
// sums here are exact between engine steps.
func (cl *Cluster) FenceStats() (fenced, staleUnfenced uint64) {
	for _, v := range cl.messagesFenced {
		fenced += v
	}
	for _, v := range cl.staleUnfenced {
		staleUnfenced += v
	}
	return fenced, staleUnfenced
}

// admitIncarnation applies the incarnation fence to a delivered payload
// stamped for incarnation inc of k's node. Messages addressed to an
// incarnation that has since been declared dead are dropped: the sender was
// talking to a retired life of this node, and acting on its payload would
// resurrect state (threads, wakes) the cluster already reaped and restored
// elsewhere.
func (cl *Cluster) admitIncarnation(k *Kernel, mt msg.Type, inc uint64) bool {
	if inc <= cl.deadInc[k.Node] {
		cl.messagesFenced[k.Node]++
		cl.tracefNode(k.Node, k.now(), "fenced", "type %d message for dead incarnation %d of node %d (now %d)",
			mt, inc, k.Node, cl.incarnation[k.Node])
		return false
	}
	if inc < cl.incarnation[k.Node] {
		// A stale incarnation that was never declared dead cannot exist
		// (incarnations only advance by declared-death rejoins), but count
		// defensively: the chaos acceptance check asserts this stays zero.
		cl.staleUnfenced[k.Node]++
	}
	return true
}

// DeclareNodeDead executes a failure detector's death verdict for node's
// current incarnation at simulated time `at`: the incarnation is fenced
// (messages stamped for it will never be delivered again), every live
// process's DSM directory is swept — the dead node's page copies dropped,
// pages it held exclusively reported lost — and processes stranded by the
// loss (origin authority, live threads, or exclusive pages on the node) are
// killed with ErrNodeLost so an installed checkpoint service can restore
// them elsewhere. Idempotent per incarnation: a second observer reaching the
// same verdict is a no-op.
//
// The verdict may be wrong. A false positive kills a process the "dead"
// node was still running (the orphan reap); when the node resumes it rejoins
// under a bumped incarnation (see RecoverNode), its heartbeats refute the
// suspicion, and anything addressed to the declared-dead incarnation is
// dropped at the fence.
func (cl *Cluster) DeclareNodeDead(node int, at float64) {
	if node < 0 || node >= len(cl.Kernels) || cl.deadInc == nil {
		return
	}
	if cl.deadInc[node] >= cl.incarnation[node] {
		return
	}
	cl.deadInc[node] = cl.incarnation[node]
	cl.tracefNode(node, at, "declare-dead", "node %d incarnation %d declared dead", node, cl.incarnation[node])

	k := cl.Kernels[node]
	var lost []*Process
	for _, p := range cl.procs {
		if p.exited {
			continue
		}
		dropped, lostPages := p.sweepNode(node)
		if len(dropped) > 0 || len(lostPages) > 0 {
			cl.tracefNode(node, at, "dsm-sweep", "pid %d: node %d swept (%d copies dropped, %d exclusive pages lost)",
				p.Pid, node, len(dropped), len(lostPages))
		}
		if p.Origin == node || len(lostPages) > 0 || cl.hasThreadOn(p, node) {
			lost = append(lost, p)
		}
	}
	for _, p := range lost {
		cl.tracefNode(node, at, "proc-lost", "pid %d stranded by declared death of node %d", p.Pid, node)
		k.killProcess(p, fmt.Errorf("pid %d: %w (node %d declared dead)", p.Pid, ErrNodeLost, node))
		if cl.OnProcessLost != nil {
			cl.OnProcessLost(p, node)
		}
	}
}

// sweepNode reclaims every reference p's directory holds to node (see
// dsm.Space.SweepNode) and the frames behind them.
func (p *Process) sweepNode(node int) (dropped, lost []uint64) {
	dropped, lost = p.Space.SweepNode(node)
	for _, pg := range dropped {
		// The directory says Invalid now; drop the local frame too, or a
		// resurrected node would read the stale copy without faulting.
		p.Mems[node].DropPage(pg << mem.PageShift)
	}
	return dropped, lost
}

// hasThreadOn reports whether p has a non-exited thread hosted on (or in
// flight to) node.
func (cl *Cluster) hasThreadOn(p *Process, node int) bool {
	for _, t := range p.threads {
		if t.State != Exited && t.Node == node {
			return true
		}
	}
	return false
}
