package sim

// Sequential is the reference engine: the exact global min-ready-time rule
// the kernel package originally ran, one node quantum (or control event)
// per Step. It is the determinism oracle the parallel backend is measured
// against.
type Sequential struct {
	m Model
	f *Feed
}

// NewSequential builds the reference engine over m.
func NewSequential(m Model) *Sequential {
	return &Sequential{m: m, f: newFeed(m)}
}

// Feed returns the engine's change feed; see Feed.
func (e *Sequential) Feed() *Feed { return e.f }

// Step advances the model by one node quantum or control event.
func (e *Sequential) Step() bool {
	e.f.enter()
	return e.advance()
}

func (e *Sequential) advance() bool {
	switch e.f.all.step(Inf) {
	case stepNone:
		return false
	case stepWork:
		e.f.note()
	}
	return true
}

// Run steps until the frontier passes `until` or work drains.
func (e *Sequential) Run(until float64) float64 {
	e.f.enter()
	for e.f.behind(until) {
		if !e.advance() {
			break
		}
	}
	return e.m.Frontier()
}

// AdvanceTo skips every node's clock to t, applying due control events.
func (e *Sequential) AdvanceTo(t float64) { e.f.advanceTo(t) }
