package sim

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The toy model: each node executes scripted batches of fixed-length quanta,
// recording each quantum's completion time. Control events skip the node's
// clock and leave a negative marker in the log. It is deliberately tiny but
// exercises every Model obligation: ready times, idle drag, events,
// frontier publication and group partitioning.

const toyQuantum = 1e-6

type toyBatch struct {
	at     float64
	quanta int
}

type toyNode struct {
	now     float64
	batch   int
	batches []toyBatch
	log     []float64
}

type toyModel struct {
	nodes   []*toyNode
	groups  [][]int
	horizon float64 // returned from Horizon; Inf = unconstrained

	events [][]float64
	evIdx  []int

	frontiers []float64

	eng Engine // unused by the toy; the back-pointer kernel.Cluster keeps
}

func newToy(scripts [][]toyBatch) *toyModel {
	m := &toyModel{horizon: Inf}
	for _, s := range scripts {
		// Copy: StepNode consumes quanta in place and scripts are reused.
		m.nodes = append(m.nodes, &toyNode{batches: append([]toyBatch(nil), s...)})
	}
	m.events = make([][]float64, len(m.nodes))
	m.evIdx = make([]int, len(m.nodes))
	m.groups = [][]int{allNodes(len(m.nodes))}
	return m
}

func (m *toyModel) NumNodes() int { return len(m.nodes) }

func (m *toyModel) ReadyTime(i int) float64 {
	nd := m.nodes[i]
	if nd.batch >= len(nd.batches) {
		return Inf
	}
	if at := nd.batches[nd.batch].at; at > nd.now {
		return at
	}
	return nd.now
}

func (m *toyModel) StepNode(i int) {
	nd := m.nodes[i]
	nd.now += toyQuantum
	nd.log = append(nd.log, nd.now)
	nd.batches[nd.batch].quanta--
	if nd.batches[nd.batch].quanta == 0 {
		nd.batch++
	}
}

func (m *toyModel) SkipTo(i int, t float64) {
	if nd := m.nodes[i]; t > nd.now {
		nd.now = t
	}
}

func (m *toyModel) Now(i int) float64 { return m.nodes[i].now }

func (m *toyModel) NextEvent(i int) float64 {
	if m.evIdx[i] >= len(m.events[i]) {
		return Inf
	}
	return m.events[i][m.evIdx[i]]
}

func (m *toyModel) ApplyEvent(i int) {
	t := m.events[i][m.evIdx[i]]
	m.evIdx[i]++
	m.SkipTo(i, t)
	m.nodes[i].log = append(m.nodes[i].log, -t)
}

func (m *toyModel) Frontier() float64 {
	f := Inf
	for _, nd := range m.nodes {
		if nd.now < f {
			f = nd.now
		}
	}
	if f >= Inf {
		return 0
	}
	return f
}

func (m *toyModel) NoteFrontier() { m.frontiers = append(m.frontiers, m.Frontier()) }

func (m *toyModel) Groups() [][]int { return m.groups }

func (m *toyModel) Horizon(start float64) float64 { return m.horizon }

// twoPairScripts is a 4-node script where nodes {0,1} and {2,3} form
// independent pairs with interleaved, unequal work.
func twoPairScripts() [][]toyBatch {
	return [][]toyBatch{
		{{at: 0, quanta: 40}, {at: 100e-6, quanta: 25}},
		{{at: 5e-6, quanta: 30}},
		{{at: 0, quanta: 10}, {at: 60e-6, quanta: 50}},
		{{at: 2e-6, quanta: 70}},
	}
}

func runSeq(scripts [][]toyBatch, events [][]float64) *toyModel {
	m := newToy(scripts)
	if events != nil {
		m.events = events
	}
	e := NewSequential(m)
	for e.Step() {
	}
	return m
}

func runPar(scripts [][]toyBatch, events [][]float64, groups [][]int, opt Options) *toyModel {
	m := newToy(scripts)
	if events != nil {
		m.events = events
	}
	if groups != nil {
		m.groups = groups
	}
	e := NewParallel(m, opt)
	for e.Step() {
	}
	return m
}

func sameState(t *testing.T, label string, a, b *toyModel) {
	t.Helper()
	for i := range a.nodes {
		if a.nodes[i].now != b.nodes[i].now {
			t.Errorf("%s: node %d clock %.9f vs %.9f", label, i, a.nodes[i].now, b.nodes[i].now)
		}
		if !reflect.DeepEqual(a.nodes[i].log, b.nodes[i].log) {
			t.Errorf("%s: node %d logs diverge (%d vs %d entries)",
				label, i, len(a.nodes[i].log), len(b.nodes[i].log))
		}
	}
}

func TestSequentialRunsAllWork(t *testing.T) {
	m := runSeq(twoPairScripts(), nil)
	want := []int{65, 30, 60, 70}
	for i, nd := range m.nodes {
		got := 0
		for _, v := range nd.log {
			if v > 0 {
				got++
			}
		}
		if got != want[i] {
			t.Errorf("node %d ran %d quanta, want %d", i, got, want[i])
		}
	}
	for i := 1; i < len(m.frontiers); i++ {
		if m.frontiers[i] < m.frontiers[i-1] {
			t.Fatalf("frontier regressed: %v", m.frontiers)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	groups := [][]int{{0, 1}, {2, 3}}
	for _, ep := range []float64{0, 20e-6, 7e-6, 1e-3} {
		seq := runSeq(twoPairScripts(), nil)
		par := runPar(twoPairScripts(), nil, groups, Options{EpochSec: ep})
		sameState(t, "epoch", seq, par)
	}
}

func TestParallelSingletonGroups(t *testing.T) {
	groups := [][]int{{0}, {1}, {2}, {3}}
	seq := runSeq(twoPairScripts(), nil)
	par := runPar(twoPairScripts(), nil, groups, Options{EpochSec: 10e-6})
	sameState(t, "singletons", seq, par)
}

func TestParallelDegradesOnNegInfHorizon(t *testing.T) {
	m := newToy(twoPairScripts())
	m.horizon = NegInf
	m.groups = [][]int{{0, 1}, {2, 3}}
	e := NewParallel(m, Options{EpochSec: 10e-6})
	for e.Step() {
	}
	seq := runSeq(twoPairScripts(), nil)
	sameState(t, "degraded", seq, m)
}

// TestParallelClampsToFiniteHorizon pins the two horizon paths: a horizon
// inside the window clamps the grouped run to it, and a horizon at the
// window start consumes actions sequentially — both must stay byte-identical
// to the reference engine.
func TestParallelClampsToFiniteHorizon(t *testing.T) {
	for _, hz := range []float64{0, 4e-6, 11e-6} {
		m := newToy(twoPairScripts())
		m.horizon = hz
		m.groups = [][]int{{0, 1}, {2, 3}}
		e := NewParallel(m, Options{EpochSec: 10e-6})
		for e.Step() {
		}
		seq := runSeq(twoPairScripts(), nil)
		sameState(t, "finite-horizon", seq, m)
	}
}

func TestParallelAppliesEvents(t *testing.T) {
	events := [][]float64{nil, {12e-6, 40e-6}, nil, {3e-6}}
	seq := runSeq(twoPairScripts(), events)
	par := runPar(twoPairScripts(), events, [][]int{{0, 1}, {2, 3}}, Options{EpochSec: 15e-6})
	sameState(t, "events", seq, par)
	marks := 0
	for _, v := range par.nodes[1].log {
		if v < 0 {
			marks++
		}
	}
	if marks != 2 {
		t.Fatalf("node 1 applied %d events, want 2", marks)
	}
}

// barrierWatch is a toy model that notes every quantum a node started at or
// past evT before the control event due at evT had been applied.
type barrierWatch struct {
	*toyModel
	evT float64

	mu      sync.Mutex // StepNode runs on the pool's workers
	applied bool
	early   []int
}

func (w *barrierWatch) StepNode(i int) {
	w.mu.Lock()
	if !w.applied && w.nodes[i].now >= w.evT {
		w.early = append(w.early, i)
	}
	w.mu.Unlock()
	w.toyModel.StepNode(i)
}

func (w *barrierWatch) ApplyEvent(i int) {
	w.mu.Lock()
	w.applied = true
	w.mu.Unlock()
	w.toyModel.ApplyEvent(i)
}

// TestControlEventEndsTheGroupedWindow: the model's Horizon says nothing
// (Inf), yet a control event due inside the epoch is a barrier for every
// group, not only the one that owns it — no node anywhere starts a quantum
// at or past the event's instant before the event has been applied.
func TestControlEventEndsTheGroupedWindow(t *testing.T) {
	const evT = 30e-6
	// Group {0,1} has a little work now and more from evT on, so it would
	// reach the instant long before group {2,3}, which owns the event, has
	// ground its way there.
	scripts := [][]toyBatch{
		{{at: 0, quanta: 5}, {at: evT, quanta: 20}},
		{{at: 1e-6, quanta: 3}, {at: evT + 2e-6, quanta: 20}},
		{{at: 0, quanta: 60}},
		{{at: 0, quanta: 45}},
	}
	events := [][]float64{nil, nil, nil, {evT}}
	multicore := runtime.NumCPU() >= 2
	if multicore && runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for round := 0; round < 20; round++ {
		w := &barrierWatch{toyModel: newToy(scripts), evT: evT}
		w.events = events
		w.groups = [][]int{{0, 1}, {2, 3}}
		e := NewParallel(w, Options{EpochSec: 100e-6})
		for e.Step() {
		}
		if multicore && e.pool == nil {
			t.Fatal("the scenario never fanned out onto the pool")
		}
		if !w.applied || len(w.early) != 0 {
			t.Fatalf("applied=%v; nodes %v started a quantum at or past the event before it was applied", w.applied, w.early)
		}
		sameState(t, "event-barrier", runSeq(scripts, events), w.toyModel)
	}
}

func TestRunClampsIdentically(t *testing.T) {
	for _, until := range []float64{10e-6, 33e-6, 80e-6, 1.0} {
		sm := newToy(twoPairScripts())
		NewSequential(sm).Run(until)
		pm := newToy(twoPairScripts())
		pm.groups = [][]int{{0, 1}, {2, 3}}
		NewParallel(pm, Options{EpochSec: 9e-6}).Run(until)
		sameState(t, "run-until", sm, pm)
	}
}

func TestLookaheadFloorsEpoch(t *testing.T) {
	e := NewParallel(newToy(twoPairScripts()), Options{EpochSec: 1e-9, LookaheadSec: 5e-6})
	if e.epoch != 5e-6 {
		t.Fatalf("epoch %g, want lookahead floor 5e-6", e.epoch)
	}
	if math.IsNaN(e.epoch) {
		t.Fatal("epoch NaN")
	}
}

// TestDroppedParallelEngineStopsItsWorkers builds and drops engines whose
// model points back at them, as kernel.Cluster does: once collected, each
// pool's finalizer must close its channel and the workers must exit.
func TestDroppedParallelEngineStopsItsWorkers(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("the pool only starts on a multi-core host")
	}
	if old := runtime.GOMAXPROCS(0); old < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		m := newToy(twoPairScripts())
		m.groups = [][]int{{0, 1}, {2, 3}}
		e := NewParallel(m, Options{EpochSec: 10e-6})
		m.eng = e
		for e.Step() {
		}
		if e.pool == nil {
			t.Fatal("the scenario never fanned out, so no pool started")
		}
	}
	if runtime.NumGoroutine() <= before {
		t.Fatal("no workers running before collection")
	}
	// Finalizers run on the runtime's own goroutine some time after the
	// collection that found the pools dead; wait for the workers' exit.
	runtime.GC()
	runtime.GC()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: dropped engines' workers still running",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
