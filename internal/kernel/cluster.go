package kernel

import (
	"fmt"
	"sort"
	"sync"

	"heterodc/internal/fault"
	"heterodc/internal/isa"
	"heterodc/internal/link"
	"heterodc/internal/msg"
	"heterodc/internal/sim"
)

// Cluster is the whole testbed: one kernel per machine plus the
// interconnect. It co-simulates the kernels in time order with bounded
// skew, which is how the replicated-kernel OS's distributed services stay
// causally consistent.
type Cluster struct {
	Kernels []*Kernel
	IC      *msg.Interconnect

	nextPid int
	procs   []*Process

	// OnMigration observes completed thread migrations.
	OnMigration func(MigrationEvent)
	// OnCheckpoint observes completed process checkpoints (the ckpt service
	// encodes and retains the snapshot).
	OnCheckpoint func(CheckpointEvent)
	// OnProcessLost fires when a permanent node crash (no scheduled
	// recovery) strands a live process: threads, exclusive pages or its
	// origin authority on the dead node. The process has already been
	// killed with ErrNodeLost; a handler may restore a fresh incarnation
	// from its latest checkpoint. With no handler installed, stranded
	// processes keep PR 1's freeze semantics (work is simply lost).
	OnProcessLost func(p *Process, node int)
	// OnAdvance observes the advancing safe time frontier (min kernel
	// clock); the power tracer samples on it.
	OnAdvance func(frontier float64)

	// Tracer, when set, receives fault/retry/recovery events. Install it
	// with SetTracer so the interconnect shares it.
	Tracer msg.EventSink

	faults *fault.Injector
	// events[node] is node's time-sorted crash/recovery schedule;
	// eventIdx[node] the next unapplied entry. Per-node lists keep control
	// events group-local under the parallel engine.
	events   [][]nodeEvent
	eventIdx []int

	// member is the installed membership service (nil: failure is read from
	// the NodeDown oracle as before). incarnation[node] is the node's
	// current incarnation (starts at 1, bumped when it rejoins after a
	// declared death); deadInc[node] the highest incarnation declared dead
	// by a detector (0: never). messagesFenced[node] counts deliveries to
	// node dropped by the incarnation fence; staleUnfenced[node] counts
	// stale-incarnation messages delivered anyway (structurally zero,
	// asserted by chaos experiments). The counters are sharded by receiving
	// node so the fence stays group-local under the parallel engine;
	// FenceStats sums them at a barrier.
	member         Membership
	incarnation    []uint64
	deadInc        []uint64
	messagesFenced []uint64
	staleUnfenced  []uint64

	// timer is the installed TimerSource (nil: none), a driver's hookup
	// into the engine's control-event stream; see timer.go.
	timer TimerSource

	lastFrontier float64

	// eng is the attached time engine; nil lazily selects the sequential
	// reference engine, preserving the original Step/Run semantics. feed is
	// that engine's change feed (nil: none attached yet, or an engine without
	// one): every write to an input of ReadyTime, NextEvent or a node clock
	// reports its node there, so the engine re-reads only those nodes. See
	// changed for the write sites.
	eng  sim.Engine
	feed *sim.Feed
	// cbMu serialises user observer callbacks (OnMigration, OnCheckpoint)
	// that may fire concurrently from different sharing groups.
	cbMu sync.Mutex
	// parGroups is true while the parallel engine runs more than one
	// sharing group; groupOf[node] is the node's group id for the current
	// epoch. The migration service uses them to refuse (deterministically)
	// a direct cross-group migrate() syscall — impossible for the vDSO
	// request path, whose pending targets join the sharing set first.
	parGroups bool
	groupOf   []int

	// Groups() scratch, reused across barriers so the per-epoch partition
	// allocates nothing in steady state (barriers run every epoch; the
	// garbage otherwise dominates the parallel engine's allocation profile).
	ufParent   []int
	ufMark     []bool
	ufIdx      []int
	ufFirstDom []int
	ufMulti    []bool
	domAnchor  []int
	groupArena []int
	groupList  [][]int
	// Union state threaded through ufUnion as fields rather than closure
	// captures: per-window closures are the one allocation the partition
	// would otherwise make. pendingVisit/gpVisit are built once and reused;
	// ufOnMerge is non-nil only during a GroupReport.
	ufLayer      string
	ufOnMerge    func(layer string, a, b int)
	pendingVisit func(*msg.Message)
	gpVisit      func(int)
	gpTo         int
}

// nodeEvent is a scheduled crash or recovery transition from a fault plan.
type nodeEvent struct {
	time float64
	node int
	down bool
}

// NewCluster builds a cluster with one kernel per listed architecture,
// joined by the given interconnect configuration.
func NewCluster(arches []isa.Arch, cfg msg.Config) *Cluster {
	return newCluster(msg.New(cfg), len(arches), func(i int) *isa.Desc { return isa.Describe(arches[i]) })
}

// NewClusterSpec builds a cluster with one kernel per machine description.
// A description may hybridise one ISA's semantics with another's timing
// and costs, as the DBT-emulation baseline does.
func NewClusterSpec(descs []*isa.Desc, cfg msg.Config) *Cluster {
	return newCluster(msg.New(cfg), len(descs), func(i int) *isa.Desc { return descs[i] })
}

// newCluster builds a cluster of n kernels over the interconnect ic, node
// i's from the description desc(i). desc is a function rather than a slice
// so that clusters built from architectures allocate no slice of
// descriptions. The kernels, and their core slots, are carved from one
// slab each.
func newCluster(ic *msg.Interconnect, n int, desc func(i int) *isa.Desc) *Cluster {
	cl := &Cluster{IC: ic, Kernels: make([]*Kernel, n)}
	cores := 0
	for i := 0; i < n; i++ {
		cores += desc(i).Cores
	}
	kernels, slots := make([]Kernel, n), make([]coreSlot, cores)
	for i := range kernels {
		d := desc(i)
		newKernel(&kernels[i], cl, i, d, slots[:d.Cores:d.Cores])
		slots = slots[d.Cores:]
		cl.Kernels[i] = &kernels[i]
	}
	cl.IC.Grow(n)
	cl.IC.OnQueueChange(cl.changed)
	cl.initMembership()
	return cl
}

// changed reports that an input of node's ReadyTime, NextEvent or clock was
// written, so the attached engine re-reads the node before its next
// decision. The inputs and who writes them:
//
//   - the node's cores, run queue, sleep heap and down flag: Kernel.enqueue,
//     dispatch, attach, detach, sleep, step (sleeper pops), reapProcess,
//     CrashNode, RecoverNode;
//   - its clock: Kernel.step and skipTo (control-event handlers; the
//     engine's own SkipTo drags are the engine's business);
//   - its delivery queue: the interconnect's queue hook (push, PopDue,
//     Drain, Sweep);
//   - its crash schedule cursor: ApplyEvent; its membership due time: the
//     service's ReportDue hook; the timer source (node 0): timerChanged.
//
// Bulk edits (InjectFaults, SetMembership) rebuild instead.
// Inside a grouped parallel window the call comes from the worker that owns
// the node's sharing group, which is the only goroutine allowed to write
// the node at all.
func (cl *Cluster) changed(node int) { cl.feed.Changed(node) }

// changed reports k's node; see Cluster.changed.
func (k *Kernel) changed() { k.cluster.feed.Changed(k.Node) }

// NewTestbed builds the paper's evaluation pair: node 0 is the x86 server
// (Xeon E5-1650 v2 flavour), node 1 the ARM server (X-Gene 1 flavour),
// joined by the Dolphin PCIe interconnect model.
func NewTestbed() *Cluster {
	return NewCluster([]isa.Arch{isa.X86, isa.ARM64}, msg.DolphinPXH810())
}

// Time returns the cluster's safe time frontier (min kernel clock).
func (cl *Cluster) Time() float64 {
	t := inf
	for _, k := range cl.Kernels {
		if now := k.now(); now < t {
			t = now
		}
	}
	if t >= inf {
		return 0
	}
	return t
}

// Spawn loads img as a new process whose main thread starts on node.
// The returned process runs as the cluster is stepped.
func (cl *Cluster) Spawn(img *link.Image, node int) (*Process, error) {
	return cl.SpawnWithFS(img, node, nil)
}

// SpawnWithFS is Spawn with a pre-populated container filesystem.
func (cl *Cluster) SpawnWithFS(img *link.Image, node int, fs *FS) (*Process, error) {
	if node < 0 || node >= len(cl.Kernels) {
		return nil, fmt.Errorf("kernel: no node %d", node)
	}
	p, err := cl.newProcess(img, node, fs)
	if err != nil {
		return nil, err
	}
	if _, err := p.newThread(cl, node, "__start"); err != nil {
		return nil, err
	}
	cl.procs = append(cl.procs, p)
	return p, nil
}

// InjectFaults installs a fault plan for the run: the interconnect applies
// per-message fates (drop, duplication, jitter) and the cluster executes
// the plan's crash schedule as it steps past each event time.
func (cl *Cluster) InjectFaults(plan fault.Plan) {
	in := fault.NewInjector(plan)
	cl.faults = in
	cl.IC.SetInjector(in)
	cl.events = make([][]nodeEvent, len(cl.Kernels))
	cl.eventIdx = make([]int, len(cl.Kernels))
	for _, c := range in.Plan().Crashes {
		if c.Node < 0 || c.Node >= len(cl.Kernels) {
			continue
		}
		cl.events[c.Node] = append(cl.events[c.Node], nodeEvent{time: c.At, node: c.Node, down: true})
		if c.RecoverAt > c.At {
			cl.events[c.Node] = append(cl.events[c.Node], nodeEvent{time: c.RecoverAt, node: c.Node, down: false})
		}
	}
	for n := range cl.events {
		evs := cl.events[n]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].time < evs[j].time })
	}
	cl.feed.Rebuild()
}

// SetTracer installs an event sink on the cluster and its interconnect.
func (cl *Cluster) SetTracer(s msg.EventSink) {
	cl.Tracer = s
	cl.IC.SetTracer(s)
}

// tracefNode records an event produced by node's own schedule in node's
// shard of the sink, which is what keeps tracing sound inside grouped
// parallel windows: each node's stream is engine-invariant, and the sink
// merges shards canonically on read.
func (cl *Cluster) tracefNode(node int, t float64, kind, format string, args ...interface{}) {
	if cl.Tracer != nil {
		cl.Tracer.RecordNode(node, t, kind, fmt.Sprintf(format, args...))
	}
}

// Quanta returns the total scheduling quanta executed across all kernels.
// Call it only between engine steps (each kernel's counter has a single
// writer — its sharing-group worker — inside a parallel window).
func (cl *Cluster) Quanta() uint64 {
	var q uint64
	for _, k := range cl.Kernels {
		q += k.Quanta
	}
	return q
}

// NodeDown reports whether node is currently crashed.
func (cl *Cluster) NodeDown(node int) bool {
	return node >= 0 && node < len(cl.Kernels) && cl.Kernels[node].down
}

// slowAt returns the gray-failure CPU slowdown factor for node at time t
// (exactly 1 when unfaulted). Pure in (node, t): safe to sample inside
// grouped parallel windows without a hazard.
func (cl *Cluster) slowAt(node int, t float64) float64 {
	if cl.faults == nil {
		return 1
	}
	return cl.faults.Slow(node, t)
}

// CrashNode fail-stops a node: threads on its cores freeze (state saved
// back, runnable again only at recovery), the node falls off the
// interconnect, and messages already in flight to it never arrive —
// migrating threads are rolled back to their source, other messages are
// redelivered after a known recovery or lost for good. Memory is
// preserved, matching the fail-stop-with-intact-RAM model in fault.Crash.
func (cl *Cluster) CrashNode(node int) {
	k := cl.Kernels[node]
	if k.down {
		return
	}
	k.down = true
	k.changed()
	cl.tracefNode(node, k.now(), "crash", "node %d down", node)
	if cl.member != nil {
		cl.member.NodeCrashed(node, k.now())
	}
	for i := range k.cores {
		if cs := &k.cores[i]; cs.thr != nil {
			t := cs.thr
			k.detach(cs)
			k.enqueue(t)
		}
	}
	var recoverAt float64
	hasRecover := false
	if cl.faults != nil {
		recoverAt, hasRecover = cl.faults.NodeRecoverAt(node, k.now())
	}
	for _, m := range cl.IC.Drain(node) {
		if m.Type == msg.THeartbeat {
			// A probe in flight to a crashed observer is void; heartbeats are
			// never requeued past an outage (the next round re-probes). The
			// service still hears of the frame: delivered to a down node it
			// only ends the frame's flight.
			if cl.member != nil {
				cl.member.Deliver(node, m)
			}
			continue
		}
		// A delivery already scheduled past a known recovery was sent by a
		// reliable channel that waited the outage out; it stands.
		if hasRecover && m.Deliver >= recoverAt {
			cl.IC.Requeue(m, m.Deliver)
			continue
		}
		if mp, ok := m.Payload.(*migratePayload); ok {
			cl.rehome(mp, k.now())
			continue
		}
		if hasRecover {
			cl.IC.Requeue(m, recoverAt+Quantum)
			continue
		}
		cl.tracefNode(node, k.now(), "msg-lost", "type %d for dead node %d", m.Type, node)
	}
	// A capture in progress cannot complete across the disruption (parked
	// threads would wait on threads frozen here); release it and retry a
	// full interval later. Only processes touching this node are affected —
	// a capture confined to an unrelated sharing group proceeds untouched.
	cl.abortCheckpoints(k.now(), node)
	// A permanent crash strands every process depending on this node. With
	// a checkpoint service installed, kill them now so it can requeue each
	// from its latest image; otherwise preserve the freeze semantics. With a
	// membership service installed, nothing happens here: the crash must be
	// *inferred* from missed heartbeats, and the teardown runs (with real
	// detection latency) from DeclareNodeDead.
	if !hasRecover && cl.OnProcessLost != nil && cl.member == nil {
		var lost []*Process
		for _, p := range cl.procs {
			if !p.exited && cl.processStranded(p, node) {
				lost = append(lost, p)
			}
		}
		for _, p := range lost {
			cl.tracefNode(node, k.now(), "proc-lost", "pid %d stranded by permanent crash of node %d", p.Pid, node)
			k.killProcess(p, fmt.Errorf("pid %d: %w (node %d)", p.Pid, ErrNodeLost, node))
			cl.OnProcessLost(p, node)
		}
	}
}

// processStranded reports whether p cannot make progress (or has lost
// state) with node permanently gone: a live thread frozen there, a page
// whose only authoritative copy is there, or its origin kernel (the
// filesystem and break authority) was there.
func (cl *Cluster) processStranded(p *Process, node int) bool {
	if p.Origin == node {
		return true
	}
	for _, t := range p.threads {
		if t.State != Exited && t.Node == node {
			return true
		}
	}
	for _, pg := range p.Space.OwnedPages() {
		if p.Space.Owner(pg) == node {
			return true
		}
	}
	return false
}

// RecoverNode brings a crashed node back: its clock was dragged forward by
// the co-simulation while it was down, its memory is intact, and threads
// frozen at the crash become runnable again from its run queue. A capture
// pending across the transition is aborted (its quiesce set was computed
// against the pre-recovery cluster) and retried a full interval later. If a
// failure detector declared this node dead during the outage, it rejoins
// under a bumped incarnation: new heartbeats refute the death, while
// messages addressed to the declared-dead incarnation stay fenced.
func (cl *Cluster) RecoverNode(node int) {
	k := cl.Kernels[node]
	if !k.down {
		return
	}
	k.down = false
	k.changed()
	cl.abortCheckpoints(k.now(), node)
	if cl.deadInc != nil && cl.deadInc[node] >= cl.incarnation[node] {
		cl.incarnation[node]++
		cl.tracefNode(node, k.now(), "rejoin", "node %d rejoins as incarnation %d (declared dead as %d)",
			node, cl.incarnation[node], cl.deadInc[node])
	}
	if cl.member != nil {
		cl.member.NodeRecovered(node, cl.incarnation[node], k.now())
	}
	cl.tracefNode(node, k.now(), "recover", "node %d up (%d threads thawed)", node, len(k.runq))
}

// applyNodeEvent executes one scheduled crash/recovery transition.
func (cl *Cluster) applyNodeEvent(ev nodeEvent) {
	k := cl.Kernels[ev.node]
	k.skipTo(ev.time)
	if ev.down {
		cl.CrashNode(ev.node)
	} else {
		cl.RecoverNode(ev.node)
	}
}

// engine returns the attached time engine, defaulting to the sequential
// reference backend on first use. Every driver entry (Step, Run)
// funnels through here, which makes it the one place to drop a stale
// grouped-execution flag: an observer calling Groups() between steps — a
// test assertion, an inspector dump — must not leave the next sequential
// quantum believing it runs inside a parallel window. The parallel backend
// re-derives the flag for every window it fans out. It is also where a
// timer source the driver may have re-armed between entries is re-read.
func (cl *Cluster) engine() sim.Engine {
	cl.parGroups = false
	if cl.eng == nil {
		cl.SetEngine(sim.NewSequential(cl))
	}
	cl.timerChanged()
	return cl.eng
}

// SetEngine attaches a time engine built over this cluster (as a sim.Model,
// directly or behind a decorator that forwards every call). Pass nil to
// fall back to the sequential reference backend. An engine that exposes a
// change feed is fed from here on, whatever model it was built over: the
// reports name nodes, and the nodes are this cluster's. Every layer reports
// its writes (see changed), so the cluster vouches for the feed.
func (cl *Cluster) SetEngine(e sim.Engine) {
	// The old engine's pending drags become the kernels' own clocks.
	cl.feed.Vouch(false)
	cl.eng = e
	cl.feed = nil
	if fed, ok := e.(interface{ Feed() *sim.Feed }); ok {
		cl.feed = fed.Feed()
	}
	cl.feed.Vouch(true)
}

// UseParallelEngine attaches the conservative parallel backend. The
// interconnect's minimum link latency is its lookahead floor; epochSec <= 0
// selects the default epoch. Results are byte-identical to the sequential
// backend for barrier-driven workloads (see internal/sim and DESIGN.md §11).
func (cl *Cluster) UseParallelEngine(epochSec float64) {
	cl.SetEngine(sim.NewParallel(cl, sim.Options{
		EpochSec:     epochSec,
		LookaheadSec: cl.IC.MinLatency(),
	}))
}

// readyTime returns when k can next make progress, or inf.
func (k *Kernel) readyTime() float64 {
	if k.down {
		// A crashed kernel executes nothing until its recovery event; the
		// co-simulation drags its clock forward in the meantime.
		return inf
	}
	now := k.now()
	for i := range k.cores {
		if k.cores[i].thr != nil {
			return now
		}
	}
	if len(k.runq) > 0 {
		return now
	}
	e := k.nextEventTime()
	if e < inf {
		if e < now {
			return now
		}
		return e
	}
	return inf
}

// Step advances the cluster through the attached engine: one kernel quantum
// on the sequential reference backend, one epoch window on the parallel
// backend. It returns false when no kernel can ever make progress again
// (all work drained).
func (cl *Cluster) Step() bool { return cl.engine().Step() }

// Run steps the cluster until the frontier passes `until` seconds or work
// drains. It returns the frontier time.
func (cl *Cluster) Run(until float64) float64 { return cl.engine().Run(until) }

// RunProcess steps the cluster until p exits and returns its exit code.
func (cl *Cluster) RunProcess(p *Process) (int64, error) {
	for {
		exited, code := p.Exited()
		if exited {
			if p.failErr != nil {
				return code, p.failErr
			}
			return code, nil
		}
		if !cl.Step() {
			return -1, fmt.Errorf("kernel: cluster drained before process %d exited (deadlock?)", p.Pid)
		}
	}
}

// reapProcess tears down all of p's threads, scoped to the nodes in p's
// sharing set — a thread, queue entry or in-flight message of p can only
// exist on (or between) footprint nodes, so unrelated nodes are untouched
// and the teardown stays group-local under the parallel engine.
func (cl *Cluster) reapProcess(p *Process) {
	nodes, fs := cl.footprint(p)
	defer fs.release()
	for _, t := range p.threads {
		t.State = Exited
	}
	p.liveThreads = 0
	for _, n := range nodes {
		k := cl.Kernels[n]
		// Clear run queues.
		var rq []*Thread
		for _, t := range k.runq {
			if t.Proc != p {
				rq = append(rq, t)
			}
		}
		k.runq = rq
		// Free cores.
		for i := range k.cores {
			if cs := &k.cores[i]; cs.thr != nil && cs.thr.Proc == p {
				cs.thr = nil
			}
		}
		k.changed()
		// Sleepers are reaped lazily: their State is Exited, so the wake
		// path drops them.
	}
	// Reclaim in-flight messages that pin the dead process's threads
	// (migrations under way, cross-kernel join wake-ups): delivering them
	// later would resurrect an Exited thread.
	cl.IC.Sweep(nodes, func(m *msg.Message) bool {
		switch pl := m.Payload.(type) {
		case *migratePayload:
			return pl.t.Proc == p
		case *wakePayload:
			return pl.t.Proc == p
		}
		return false
	})
	// Nothing reads an exited process's memory: every view it built goes.
	// A core elsewhere may still be attached to one; Release empties it,
	// and the core's TLB lets go at its next attach.
	for n, m := range p.mems {
		if m != nil {
			m.Release()
			p.mems[n] = nil
		}
	}
}

// DefaultInterconnect exposes the testbed interconnect configuration for
// single-machine clusters (where it is unused but required).
func DefaultInterconnect() msg.Config { return msg.DolphinPXH810() }
