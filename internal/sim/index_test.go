package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// chaosModel is a Model whose every action rewrites scheduling inputs of
// random nodes: its own, and those of the other nodes of its cell (a message
// sent, a thread woken, an event rescheduled). Cells are a fixed random
// partition — the model's real sharing structure — and Groups reports a
// random coarsening of it, fresh for every window. Each node draws from its
// own seeded stream, so what an action does depends only on how often that
// node has acted — the same under any interleaving of disjoint groups.
//
// With a feed attached it reports what it wrote, plus random bystanders; a
// report may be dropped on purpose (omit) to prove the tests notice. Like
// every model that vouches, it then reads clocks through the feed (clock).
type chaosModel struct {
	now    []float64 // the clocks as the model last set them
	wake   []float64 // ready = max(wake, now); Inf: drained
	event  []float64
	rng    []*rand.Rand
	cell   []int   // the cell of each node
	cells  [][]int // ascending, ordered by smallest member
	groups [][]int // the current window's coarsening of cells

	part    *rand.Rand // draws the partitions (scheduling goroutine only)
	horizon float64

	feed  *Feed
	extra []*rand.Rand // bystander reports, per acting node; never touches state
	omit  func(node int) bool

	lastKind []stepResult // per node: what it last did, and how often it acted
	acts     []int
}

const chaosQuantum = 1e-6

func newChaos(seed int64, n int) *chaosModel {
	m := &chaosModel{
		now: make([]float64, n), wake: make([]float64, n), event: make([]float64, n),
		cell: make([]int, n), lastKind: make([]stepResult, n), acts: make([]int, n),
		part: rand.New(rand.NewSource(seed ^ 0x5eed)), horizon: Inf,
	}
	init := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		m.rng = append(m.rng, rand.New(rand.NewSource(seed*1000+int64(i))))
		m.extra = append(m.extra, rand.New(rand.NewSource(seed*7777+int64(i))))
		m.wake[i], m.event[i] = Inf, Inf
		switch init.Intn(3) {
		case 0:
			m.wake[i] = 0
		case 1:
			m.wake[i] = float64(init.Intn(20)) * chaosQuantum
		}
		if init.Intn(3) == 0 {
			m.event[i] = float64(init.Intn(30)) * chaosQuantum / 2
		}
	}
	k := 1 + init.Intn(n)
	seen := map[int]int{}
	for i := 0; i < n; i++ {
		l := init.Intn(k)
		c, ok := seen[l]
		if !ok {
			c = len(m.cells)
			seen[l] = c
			m.cells = append(m.cells, nil)
		}
		m.cells[c] = append(m.cells[c], i)
		m.cell[i] = c
	}
	m.groups = [][]int{allNodes(n)}
	return m
}

// clock is node i's clock: its own, raised by a drag the engine has not
// written yet.
func (m *chaosModel) clock(i int) float64 {
	if t := m.feed.Floor(i); t > m.now[i] {
		return t
	}
	return m.now[i]
}

func (m *chaosModel) report(node int) {
	if m.feed != nil && (m.omit == nil || !m.omit(node)) {
		m.feed.Changed(node)
	}
}

// peer picks a node of actor's cell.
func (m *chaosModel) peer(actor int) int {
	c := m.cells[m.cell[actor]]
	return c[m.rng[actor].Intn(len(c))]
}

// scribble is the side effect of an action by actor at time t.
func (m *chaosModel) scribble(actor int, t float64) {
	r := m.rng[actor]
	for k := r.Intn(3); k > 0; k-- {
		p := m.peer(actor)
		switch r.Intn(4) {
		case 0: // a delivery some quanta ahead (or overdue, if p's clock is past it)
			if w := t + float64(r.Intn(6))*chaosQuantum; w < m.wake[p] {
				m.wake[p] = w
			}
		case 1: // p's work is reaped
			m.wake[p] = Inf
		case 2: // p's next control event moves
			m.event[p] = t + float64(1+r.Intn(8))*chaosQuantum/2
		case 3:
			m.event[p] = Inf
		}
		m.report(p)
	}
	// Bystanders: reports about nodes nothing happened to must be harmless.
	if m.feed != nil {
		x := m.extra[actor]
		c := m.cells[m.cell[actor]]
		for k := x.Intn(3); k > 0; k-- {
			m.feed.Changed(c[x.Intn(len(c))])
		}
	}
}

func (m *chaosModel) NumNodes() int { return len(m.now) }

func (m *chaosModel) ReadyTime(i int) float64 {
	if m.wake[i] >= Inf {
		return Inf
	}
	if now := m.clock(i); m.wake[i] <= now {
		return now
	}
	return m.wake[i]
}

func (m *chaosModel) StepNode(i int) {
	m.now[i] += chaosQuantum
	m.lastKind[i] = stepWork
	m.acts[i]++
	if m.rng[i].Intn(4) == 0 { // ran out of work for a while, or for good
		m.wake[i] = Inf
		if m.rng[i].Intn(2) == 0 {
			m.wake[i] = m.now[i] + float64(m.rng[i].Intn(10))*chaosQuantum
		}
	}
	m.report(i)
	m.scribble(i, m.clock(i))
}

func (m *chaosModel) SkipTo(i int, t float64) {
	if t > m.now[i] {
		m.now[i] = t
	}
}

func (m *chaosModel) Now(i int) float64       { return m.clock(i) }
func (m *chaosModel) NextWake(i int) float64  { return m.wake[i] }
func (m *chaosModel) NextEvent(i int) float64 { return m.event[i] }

func (m *chaosModel) ApplyEvent(i int) {
	t := m.event[i]
	if t > m.now[i] {
		m.now[i] = t
	}
	m.lastKind[i] = stepEvent
	m.acts[i]++
	m.event[i] = Inf
	if m.acts[i] < 400 && m.rng[i].Intn(3) > 0 {
		m.event[i] = t + float64(1+m.rng[i].Intn(12))*chaosQuantum/2
	}
	m.report(i)
	m.scribble(i, m.clock(i))
}

func (m *chaosModel) Frontier() float64 {
	f := Inf
	for i := range m.now {
		if t := m.clock(i); t < f {
			f = t
		}
	}
	if f >= Inf {
		return 0
	}
	return f
}

func (m *chaosModel) NoteFrontier() {}

// repartition draws a fresh random coarsening of the cells (ascending
// groups, ordered by smallest member, as Model.Groups requires).
func (m *chaosModel) repartition() {
	k := 1 + m.part.Intn(len(m.cells))
	label := make([]int, len(m.cells))
	for c := range label {
		label[c] = m.part.Intn(k)
	}
	m.groups = m.groups[:0]
	seen := map[int]int{}
	for i := range m.now {
		l := label[m.cell[i]]
		g, ok := seen[l]
		if !ok {
			g = len(m.groups)
			seen[l] = g
			m.groups = append(m.groups, nil)
		}
		m.groups[g] = append(m.groups[g], i)
	}
}

func (m *chaosModel) Groups() [][]int {
	m.repartition()
	return m.groups
}

func (m *chaosModel) Horizon(float64) float64 { return m.horizon }

// sameChaos compares everything the engines can see or move.
func sameChaos(a, b *chaosModel) error {
	for i := range a.now {
		switch {
		case a.Now(i) != b.Now(i):
			return fmt.Errorf("node %d clock %.9g vs %.9g", i, a.Now(i), b.Now(i))
		case a.acts[i] != b.acts[i] || a.lastKind[i] != b.lastKind[i]:
			return fmt.Errorf("node %d acted %d times (last kind %d) vs %d (%d)", i, a.acts[i], a.lastKind[i], b.acts[i], b.lastKind[i])
		case a.ReadyTime(i) != b.ReadyTime(i) || a.event[i] != b.event[i]:
			return fmt.Errorf("node %d keys (%.9g, %.9g) vs (%.9g, %.9g)", i, a.ReadyTime(i), a.event[i], b.ReadyTime(i), b.event[i])
		}
	}
	return nil
}

// lockstep drives model a through index steps and model b through the
// full-scan reference over random partitions, comparing after every step:
// the decision's kind, the node that acted (through the per-node action
// log), and every clock and key. Between windows it edits both models from
// outside, as a driver would.
func lockstep(t *testing.T, seed int64, n int, vouch bool, omit func(int) bool) error {
	t.Helper()
	a, b := newChaos(seed, n), newChaos(seed, n)
	f := newFeed(a)
	if vouch {
		a.feed = f
		a.omit = omit
		f.Vouch(true)
	}
	drv := rand.New(rand.NewSource(seed + 99))
	steps := 0
	for window := 0; window < 60; window++ {
		// A driver-side edit, reported like any other write.
		if drv.Intn(3) == 0 {
			nd := drv.Intn(n)
			w := a.Frontier() + float64(drv.Intn(5))*chaosQuantum
			a.wake[nd], b.wake[nd] = w, w
			a.report(nd)
		}
		f.enter()
		if got, want := f.all.nextActionTime(), refNextActionTime(b, allNodes(n)); got != want {
			return fmt.Errorf("window %d: next action %.9g, scan says %.9g", window, got, want)
		}
		a.repartition()
		b.repartition()
		limit := Inf
		if drv.Intn(2) == 0 {
			limit = b.Frontier() + float64(1+drv.Intn(40))*chaosQuantum
		}
		grouped := drv.Intn(4) > 0
		sets := [][]int{allNodes(n)} // inline on the whole fleet
		if grouped {
			sets = a.groups
		}
		for _, g := range sets {
			ix := &f.all
			if grouped {
				ix = &index{f: f}
				ix.reset(g)
			}
			for k := 0; k < 25; k++ {
				got := ix.step(limit)
				want, _ := refStepOnce(b, g, limit)
				steps++
				if got != want {
					return fmt.Errorf("window %d group %v step %d: index did %d, scan did %d", window, g, k, got, want)
				}
				if err := sameChaos(a, b); err != nil {
					return fmt.Errorf("window %d group %v step %d (kind %d): %v", window, g, k, got, err)
				}
				if got == stepNone {
					break
				}
			}
			if grouped {
				ix.release()
				f.all.build()
				if !vouch {
					f.all.stale = true
				}
			}
		}
		// The barrier drag, to the fastest clock the index has seen.
		f.all.refresh()
		max := 0.0
		for i := 0; i < n; i++ {
			if b.now[i] > max {
				max = b.now[i]
			}
		}
		if f.all.top != max {
			return fmt.Errorf("window %d: the index's fastest clock is %.9g, the scan's %.9g", window, f.all.top, max)
		}
		f.all.drag(max)
		for i := 0; i < n; i++ {
			if b.ReadyTime(i) >= Inf && b.now[i] < max {
				b.SkipTo(i, max)
			}
		}
		if err := sameChaos(a, b); err != nil {
			return fmt.Errorf("window %d barrier: %v", window, err)
		}
		if f.vouched != vouch {
			return fmt.Errorf("vouch flag moved")
		}
	}
	if steps < 100 {
		return fmt.Errorf("only %d steps compared: the scenario is too quiet to prove anything", steps)
	}
	return nil
}

// TestIndexMatchesFullScan is the property test for the index: over random
// models, partitions, limits and report supersets, every step of the
// indexed loop equals the step of the full-scan rule it replaced — both
// when the model reports what it wrote and when it reports nothing.
func TestIndexMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		n := 1 + int(seed*7%13)
		for _, vouch := range []bool{true, false} {
			if err := lockstep(t, seed, n, vouch, nil); err != nil {
				t.Fatalf("seed %d, %d nodes, vouched=%v: %v", seed, n, vouch, err)
			}
		}
	}
}

// TestIndexLockstepNoticesAnOmittedReport proves the property test has
// teeth: a model that vouches but forgets to report one node's writes makes
// the lockstep fail.
func TestIndexLockstepNoticesAnOmittedReport(t *testing.T) {
	caught := 0
	for seed := int64(1); seed <= 20; seed++ {
		n := 4 + int(seed%6)
		if err := lockstep(t, seed, n, true, func(node int) bool { return node == 1 }); err != nil {
			caught++
		}
	}
	if caught < 15 {
		t.Fatalf("an omitted report was noticed in only %d of 20 scenarios", caught)
	}
}

// lazyCoverage counts the situations the lazy drag must get right, over
// every scenario of TestLazyDragMatchesEagerDrag.
type lazyCoverage struct {
	below    int // a drag kept beneath a higher, older one
	undrain  int // a node left the drained set with a drag pending
	handover int // a group took nodes over with drags pending
	rebuild  int // a stale rebuild with drags pending
	advance  int // advanceTo with drags pending
}

// lazyLockstep drives two copies of the chaos model through the same index
// operations: a vouches and is dragged lazily, b is unvouched and dragged
// eagerly, node by node. After every step and barrier every clock (as each
// model reads it), every key and the frontier must agree, and a's cached
// keys must match its model.
func lazyLockstep(seed int64, n int, cov *lazyCoverage) error {
	a, b := newChaos(seed, n), newChaos(seed, n)
	fa, fb := newFeed(a), newFeed(b)
	a.feed = fa
	fa.Vouch(true)
	same := func() error {
		if err := sameChaos(a, b); err != nil {
			return err
		}
		if nd := fa.Audit(); nd >= 0 {
			return fmt.Errorf("node %d: the lazy index's keys are stale", nd)
		}
		return nil
	}
	// frontier compares the lazy index's frontier, right after a drag, with
	// the eager model's minimum clock.
	frontier := func() error {
		if got, want := fa.all.frontier(), b.Frontier(); got != want {
			return fmt.Errorf("frontier %.9g, eager %.9g", got, want)
		}
		return nil
	}
	pending := func() bool { return len(fa.all.pending) > 0 }
	// steps runs up to 25 actions on a pair of indices over the same nodes.
	steps := func(ia, ib *index, limit float64, fleet bool) error {
		lifted := make([]bool, n)
		for k := 0; k < 25; k++ {
			for i := range lifted {
				lifted[i] = a.clock(i) > a.now[i]
			}
			ra, rb := ia.step(limit), ib.step(limit)
			if ra != rb {
				return fmt.Errorf("step %d: lazy did %d, eager %d", k, ra, rb)
			}
			if err := same(); err != nil {
				return fmt.Errorf("step %d (kind %d): %v", k, ra, err)
			}
			if len(ia.pending) > 1 {
				cov.below++
			}
			for i, l := range lifted {
				if l && a.ReadyTime(i) < Inf {
					cov.undrain++
				}
			}
			if ra == stepNone {
				return nil
			}
			if fleet && ra == stepWork {
				if err := frontier(); err != nil {
					return fmt.Errorf("step %d: %v", k, err)
				}
			}
		}
		return nil
	}
	drv := rand.New(rand.NewSource(seed + 7))
	for window := 0; window < 60; window++ {
		switch drv.Intn(6) {
		case 0: // a driver-side edit, reported
			nd := drv.Intn(n)
			w := b.Frontier() + float64(drv.Intn(5))*chaosQuantum
			a.wake[nd], b.wake[nd] = w, w
			a.report(nd)
		case 1: // a bulk edit
			if pending() {
				cov.rebuild++
			}
			fa.Rebuild()
			fb.Rebuild()
		case 2: // an idle gap
			if pending() {
				cov.advance++
			}
			t := b.Frontier() + float64(drv.Intn(6))*chaosQuantum
			fa.advanceTo(t)
			fb.advanceTo(t)
			if err := same(); err != nil {
				return fmt.Errorf("window %d advanceTo: %v", window, err)
			}
		}
		fa.enter()
		fb.enter()
		limit := Inf
		if drv.Intn(2) == 0 {
			limit = b.Frontier() + float64(1+drv.Intn(40))*chaosQuantum
		}
		if drv.Intn(3) > 0 {
			if err := steps(&fa.all, &fb.all, limit, true); err != nil {
				return fmt.Errorf("window %d inline: %v", window, err)
			}
		} else {
			// A fanned-out window, run group after group as one core would.
			fa.all.refresh()
			fb.all.refresh()
			if pending() {
				cov.handover++
			}
			a.repartition()
			b.repartition()
			var ias, ibs []*index
			for _, g := range a.groups {
				ia, ib := &index{f: fa}, &index{f: fb}
				ia.reset(g)
				ib.reset(g)
				ias, ibs = append(ias, ia), append(ibs, ib)
			}
			for i, g := range a.groups {
				if err := steps(ias[i], ibs[i], limit, false); err != nil {
					return fmt.Errorf("window %d group %v: %v", window, g, err)
				}
			}
			for i := range ias {
				ias[i].release()
				ibs[i].release()
			}
			fa.all.build()
			fb.all.stale = true
		}
		// The barrier.
		fa.all.refresh()
		fb.all.refresh()
		if fa.all.top != fb.all.top {
			return fmt.Errorf("window %d: fastest clock %.9g, eager %.9g", window, fa.all.top, fb.all.top)
		}
		fa.all.drag(fa.all.top)
		fb.all.drag(fb.all.top)
		if err := same(); err != nil {
			return fmt.Errorf("window %d barrier: %v", window, err)
		}
		if err := frontier(); err != nil {
			return fmt.Errorf("window %d barrier: %v", window, err)
		}
	}
	return nil
}

// TestLazyDragMatchesEagerDrag: a drained node's clock is written into the
// model only when the node is next needed, yet every clock, key and
// frontier equals what the eager, node-by-node drag gives — across event
// drags below earlier work drags, nodes that drain and undrain between
// drags, groups taking nodes over and handing them back, stale rebuilds
// and idle gaps, each with drags pending.
func TestLazyDragMatchesEagerDrag(t *testing.T) {
	var cov lazyCoverage
	for seed := int64(1); seed <= 40; seed++ {
		n := 2 + int(seed*3%14)
		if err := lazyLockstep(seed, n, &cov); err != nil {
			t.Fatalf("seed %d, %d nodes: %v", seed, n, err)
		}
	}
	t.Logf("coverage: %+v", cov)
	if cov.below < 20 || cov.undrain < 20 || cov.handover < 20 || cov.rebuild < 10 || cov.advance < 10 {
		t.Fatalf("the scenarios stayed away from what they test: %+v", cov)
	}
}

// chaosFinal runs a fresh chaos model to a fixed horizon on one engine —
// the parallel one if fanout >= 0, with that thin-window constant — and
// says whether a window ever fanned out to the worker pool.
func chaosFinal(seed int64, n int, fanout float64, vouch bool, hz float64) (*chaosModel, bool) {
	m := newChaos(seed, n)
	m.horizon = hz
	var e Engine
	var f *Feed
	if fanout >= 0 {
		p := NewParallel(m, Options{EpochSec: 9e-6})
		p.fanout = fanout
		e, f = p, p.Feed()
	} else {
		s := NewSequential(m)
		e, f = s, s.Feed()
	}
	if vouch {
		m.feed = f
		f.Vouch(true)
	}
	e.Run(300e-6)
	p, _ := e.(*Parallel)
	return m, p != nil && p.pool != nil
}

// TestFedEnginesMatchUnfed runs the random model end to end on each engine
// twice: vouched for, with reports arriving from the group workers of a
// real pool and drags applied lazily, and unvouched, where every node is
// re-read after every action and dragged eagerly (which the lockstep test
// ties to the full-scan rule). The final states must be identical. The
// parallel engine runs with its thin-window rule and with every window
// fanned out. Under -race this is also the test that change reports and
// clock reads from group workers touch per-node state only. (Sequential
// against parallel is not compared here: the model's ready times depend on
// how far other cells dragged an idle clock, which is not
// engine-invariant.)
func TestFedEnginesMatchUnfed(t *testing.T) {
	if old := runtime.GOMAXPROCS(0); old < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	pooled := 0
	for seed := int64(1); seed <= 25; seed++ {
		n := 2 + int(seed*5%11)
		for _, hz := range []float64{Inf, NegInf, 40e-6} {
			for _, fanout := range []float64{-1, thinWindow, 0} {
				want, _ := chaosFinal(seed, n, fanout, false, hz)
				got, fanned := chaosFinal(seed, n, fanout, true, hz)
				if err := sameChaos(got, want); err != nil {
					t.Fatalf("seed %d, %d nodes, horizon %g, fanout %g: fed vs unfed: %v", seed, n, hz, fanout, err)
				}
				if fanned {
					pooled++
				}
			}
		}
	}
	if pooled < 10 && runtime.NumCPU() >= 2 {
		t.Fatalf("only %d fed runs reached the worker pool", pooled)
	}
}

// quietFleet is a fleet in which nothing ever allocates: n nodes, each its
// own sharing group, each with an endless stream of quanta, half of them
// idle so the drag has work. Fed, it reads clocks through the feed.
type quietFleet struct {
	now    []float64
	groups [][]int
	feed   *Feed
}

func newQuietFleet(n int) *quietFleet {
	m := &quietFleet{now: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.groups = append(m.groups, []int{i})
	}
	return m
}

func (m *quietFleet) NumNodes() int { return len(m.now) }
func (m *quietFleet) ReadyTime(i int) float64 {
	if i%2 == 1 {
		return Inf
	}
	return m.now[i]
}
func (m *quietFleet) StepNode(i int) { m.now[i] += chaosQuantum; m.feed.Changed(i) }
func (m *quietFleet) SkipTo(i int, t float64) {
	if t > m.now[i] {
		m.now[i] = t
	}
}
func (m *quietFleet) Now(i int) float64 {
	if t := m.feed.Floor(i); t > m.now[i] {
		return t
	}
	return m.now[i]
}
func (m *quietFleet) NextWake(int) float64    { return Inf }
func (m *quietFleet) NextEvent(int) float64   { return Inf }
func (m *quietFleet) ApplyEvent(int)          {}
func (m *quietFleet) NoteFrontier()           {}
func (m *quietFleet) Groups() [][]int         { return m.groups }
func (m *quietFleet) Horizon(float64) float64 { return Inf }
func (m *quietFleet) Frontier() float64 {
	f := Inf
	for i := range m.now {
		if t := m.Now(i); t < f {
			f = t
		}
	}
	return f
}

// TestStepDoesNotAllocate: the index is sized once per engine; a Step —
// a quantum on the sequential engine, a window fanned out with its group
// indices or run inline on the parallel one — costs no allocation, fed or
// not.
func TestStepDoesNotAllocate(t *testing.T) {
	for _, c := range []struct {
		name       string
		par, vouch bool
		fanout     float64
	}{
		{"seq", false, false, 0}, {"seq-fed", false, true, 0},
		{"par", true, false, 0}, {"par-fed", true, true, 0},
		{"par-thin", true, false, 1e9}, {"par-thin-fed", true, true, 1e9},
	} {
		m := newQuietFleet(64)
		var e Engine
		if c.par {
			p := NewParallel(m, Options{EpochSec: 20e-6})
			p.fanout = c.fanout
			e = p
			if c.vouch {
				m.feed = p.Feed()
			}
		} else {
			s := NewSequential(m)
			e = s
			if c.vouch {
				m.feed = s.Feed()
			}
		}
		m.feed.Vouch(c.vouch)
		for i := 0; i < 10; i++ { // size the pool and the group indices
			e.Step()
		}
		if a := testing.AllocsPerRun(200, func() { e.Step() }); a != 0 {
			t.Errorf("%s: %.1f allocations per Step", c.name, a)
		}
	}
}
