package main

import (
	"time"

	"heterodc/internal/kernel"
	"heterodc/internal/sim"
)

// span is one timed interval at a layer boundary. Harness-level spans (an
// op, an engine run, a toolchain stage) carry an ID other spans name as
// their parent; the model-call spans the decorator records are leaves.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	ID      int    `json:"id,omitempty"`
	Parent  int    `json:"parent"`
	Node    int    `json:"node"` // -1: not tied to a node
	Op      int    `json:"op"`
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer keeps every span in memory until the benchmark ends. Harness
// spans go to one slice written only by the load-generating goroutine;
// model-call spans go to per-node shards, because inside a parallel-engine
// window each node is stepped by exactly one worker and workers must never
// share a slice.
type tracer struct {
	t0     time.Time
	op     int
	nextID int
	main   []span
	shards [][]nodeShard // one slice per traced cluster, indexed by node
}

// nodeShard is one node's model-call record.
type nodeShard struct {
	spans   []span
	busyNs  int64 // StepNode time in quanta that retired instructions
	busyN   uint64
	idleNs  int64
	idleN   uint64
	eventNs int64 // ApplyEvent time
	eventN  uint64
}

// newTracer starts the trace of the op-th traced op.
func newTracer(op int) *tracer { return &tracer{t0: time.Now(), op: op} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a harness span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	t.nextID++
	t.main = append(t.main, span{Name: name, StartNs: t.now(), ID: t.nextID, Parent: parent, Node: -1, Op: t.op})
	return t.nextID
}

// end closes the harness span id.
func (t *tracer) end(id int) {
	for i := len(t.main) - 1; i >= 0; i-- {
		if t.main[i].ID == id {
			t.main[i].EndNs = t.now()
			return
		}
	}
}

// stage times fn as a harness span when tracing; with a nil tracer it just
// runs fn, so untraced ops pay nothing.
func (t *tracer) stage(name string, parent int, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// all returns every span recorded so far, harness spans first.
func (t *tracer) all() []span {
	out := append([]span(nil), t.main...)
	for _, cluster := range t.shards {
		for i := range cluster {
			out = append(out, cluster[i].spans...)
		}
	}
	return out
}

// tracedModel decorates a *kernel.Cluster as the sim.Model an engine
// schedules: every call is forwarded unchanged, StepNode/ApplyEvent/Groups/
// Horizon are timed as spans under the engine-run span, and the scan calls
// are counted. It measures the layers from outside — nothing in the repo's
// packages knows it exists.
type tracedModel struct {
	cl     *kernel.Cluster
	t      *tracer
	parent int
	eng    string      // "seq" or "par"
	wall   float64     // host seconds of the engine run
	nodes  []nodeShard // this cluster's shards, indexed by node
	// scans[node] counts the calls the engines make to find the next
	// action (counted, not timed: a clock read per ReadyTime call would
	// cost more than the call). One compact array, because an idle fleet
	// makes hundreds of millions of them and a counter per cache line
	// evicts the kernel's own data; nodes are distinct words, so workers
	// never race.
	scans []uint64
	// Barrier-only calls (one goroutine): no sharding needed.
	barrier     []span
	groupsN     uint64
	groupsSum   uint64
	groupsMulti uint64
}

var _ sim.Model = (*tracedModel)(nil)

// trace wraps cl for an engine run whose span is parent.
func (t *tracer) trace(cl *kernel.Cluster, parent int) *tracedModel {
	m := &tracedModel{cl: cl, t: t, parent: parent, nodes: make([]nodeShard, cl.NumNodes()), scans: make([]uint64, cl.NumNodes())}
	t.shards = append(t.shards, m.nodes)
	return m
}

// finish folds the barrier spans into the tracer once the engine run is
// over (called from the load-generating goroutine).
func (m *tracedModel) finish() { m.t.main = append(m.t.main, m.barrier...) }

func (m *tracedModel) NumNodes() int { return m.cl.NumNodes() }

func (m *tracedModel) ReadyTime(node int) float64 {
	m.scans[node]++
	return m.cl.ReadyTime(node)
}

func (m *tracedModel) StepNode(node int) {
	sh := &m.nodes[node]
	k := m.cl.Kernels[node]
	before := k.InstrsRetired
	s := m.t.now()
	m.cl.StepNode(node)
	e := m.t.now()
	sh.spans = append(sh.spans, span{Name: "kernel.StepNode", StartNs: s, EndNs: e, Parent: m.parent, Node: node, Op: m.t.op})
	if k.InstrsRetired != before {
		sh.busyNs += e - s
		sh.busyN++
	} else {
		sh.idleNs += e - s
		sh.idleN++
	}
}

func (m *tracedModel) SkipTo(node int, t float64) { m.cl.SkipTo(node, t) }

func (m *tracedModel) Now(node int) float64 {
	m.scans[node]++
	return m.cl.Now(node)
}

func (m *tracedModel) NextWake(node int) float64 {
	m.scans[node]++
	return m.cl.NextWake(node)
}

func (m *tracedModel) NextEvent(node int) float64 {
	m.scans[node]++
	return m.cl.NextEvent(node)
}

func (m *tracedModel) ApplyEvent(node int) {
	sh := &m.nodes[node]
	s := m.t.now()
	m.cl.ApplyEvent(node)
	e := m.t.now()
	sh.spans = append(sh.spans, span{Name: "kernel.ApplyEvent", StartNs: s, EndNs: e, Parent: m.parent, Node: node, Op: m.t.op})
	sh.eventNs += e - s
	sh.eventN++
}

func (m *tracedModel) Frontier() float64 { return m.cl.Frontier() }
func (m *tracedModel) NoteFrontier()     { m.cl.NoteFrontier() }

func (m *tracedModel) Groups() [][]int {
	s := m.t.now()
	g := m.cl.Groups()
	m.barrier = append(m.barrier, span{Name: "sim.Groups", StartNs: s, EndNs: m.t.now(), Parent: m.parent, Node: -1, Op: m.t.op})
	m.groupsN++
	m.groupsSum += uint64(len(g))
	if len(g) > 1 {
		m.groupsMulti++
	}
	return g
}

func (m *tracedModel) Horizon(start float64) float64 {
	s := m.t.now()
	h := m.cl.Horizon(start)
	m.barrier = append(m.barrier, span{Name: "sim.Horizon", StartNs: s, EndNs: m.t.now(), Parent: m.parent, Node: -1, Op: m.t.op})
	return h
}
