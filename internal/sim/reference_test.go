package sim

// The full-scan scheduling rule the index replaced, kept verbatim as the
// reference the lockstep tests compare the indexed engines against. It asks
// the model about every node of the set on every decision.

// refNextEvent returns the earliest control event over nodes (lowest node
// wins ties), or (-1, Inf).
func refNextEvent(m Model, nodes []int) (int, float64) {
	evN, evT := -1, Inf
	for _, n := range nodes {
		if t := m.NextEvent(n); t < evT {
			evT, evN = t, n
		}
	}
	return evN, evT
}

// refNextActionTime returns the earliest ready time or control event over
// nodes, or >= Inf when the set is fully drained.
func refNextActionTime(m Model, nodes []int) float64 {
	t := Inf
	for _, n := range nodes {
		if r := m.ReadyTime(n); r < t {
			t = r
		}
		if e := m.NextEvent(n); e < t {
			t = e
		}
	}
	return t
}

// refStepOnce makes one scheduling decision by scanning: apply the next due
// control event, or step the lowest-ready-time node and drag the set's idle
// nodes up to its clock. It returns what it did and to which node.
func refStepOnce(m Model, nodes []int, limit float64) (stepResult, int) {
	bestT := Inf
	best := -1
	for _, n := range nodes {
		if t := m.ReadyTime(n); t < bestT {
			bestT = t
			best = n
		}
	}
	if evN, evT := refNextEvent(m, nodes); evN >= 0 && evT <= bestT {
		if evT >= limit {
			return stepNone, -1
		}
		for _, n := range nodes {
			if m.ReadyTime(n) >= Inf && m.Now(n) < evT {
				m.SkipTo(n, evT)
			}
		}
		m.ApplyEvent(evN)
		return stepEvent, evN
	}
	if best < 0 || bestT >= Inf || bestT >= limit {
		return stepNone, -1
	}
	m.SkipTo(best, bestT)
	m.StepNode(best)
	bn := m.Now(best)
	for _, n := range nodes {
		if n != best && m.ReadyTime(n) >= Inf && m.Now(n) < bn {
			m.SkipTo(n, bn)
		}
	}
	return stepWork, best
}
