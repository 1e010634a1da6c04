package member

import "heterodc/internal/kernel"

// This file is the gray-failure health layer. SWIM is a fail-stop
// detector: it convicts nodes that stop answering, and its refutation
// machinery deliberately clears nodes that answer late. A node that is
// *degrading* — a throttled CPU, a lossy or high-jitter NIC — therefore
// survives SWIM indefinitely while dragging every job placed on it. The
// Monitor scores nodes from three observable signals instead:
//
//   - retire-rate degradation: cycles retired per busy second falling
//     below the nominal clock (the quantum-rate signature of a gray CPU);
//   - probe RTT inflation over the node's own healthy baseline;
//   - missed-but-refuted suspicions (flaps): probes that timed out and
//     then cleared, the signature of a lossy link SWIM cannot convict.
//
// Scores feed hysteresis thresholds; the scheduler reads Degraded to
// steer placement away and proactively evacuate. Tick must only be
// called between engine steps (in practice: from the open-loop driver's
// timer action, a control event the engines apply in one order), so every
// input it reads is engine-exact and the whole layer adds no hazard.

// observeRTT folds one direct-probe round-trip sample into the
// observer's EWMA for target (observer-sharded; see Service.rtt).
func (s *Service) observeRTT(observer, target int, sample float64) {
	if sample < 0 {
		return
	}
	old, ok := s.rtt[observer][target]
	if !ok {
		s.rtt[observer][target] = sample
		return
	}
	s.rtt[observer][target] = old + 0.25*(sample-old)
}

// RTTTowards returns the mean of the per-observer smoothed probe RTTs to
// target (ok=false before any observer completes a round trip). Exact
// between engine steps.
func (s *Service) RTTTowards(target int) (float64, bool) {
	var sum float64
	n := 0
	for o := 0; o < s.n; o++ {
		if v, ok := s.rtt[o][target]; ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// FlapsTowards returns refuted suspicions of target summed over all
// observers. Exact between engine steps.
func (s *Service) FlapsTowards(target int) uint64 {
	var sum uint64
	for o := 0; o < s.n; o++ {
		sum += s.flaps[o][target]
	}
	return sum
}

// HealthConfig tunes the monitor's signal-to-score mapping.
type HealthConfig struct {
	// Enter/Exit are the hysteresis thresholds on the combined score:
	// a node is marked degraded at score >= Enter and cleared at
	// score <= Exit. Defaults 0.5 / 0.2.
	Enter, Exit float64
	// SlowAt is the retire-rate slowdown factor that maps to score 1
	// (default 2: a node running at half speed scores 1).
	SlowAt float64
	// RTTAt is the RTT inflation factor over baseline that maps to score 1
	// (default 4).
	RTTAt float64
	// FlapsAt is the per-tick flap count that maps to score 1 (default 2).
	FlapsAt float64
	// Decay multiplies the event-driven signal scores each tick with no
	// fresh evidence (default 0.5), so a healed node ramps back in instead
	// of flipping.
	Decay float64
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Enter == 0 {
		c.Enter = 0.5
	}
	if c.Exit == 0 {
		c.Exit = 0.2
	}
	if c.SlowAt == 0 {
		c.SlowAt = 2
	}
	if c.RTTAt == 0 {
		c.RTTAt = 4
	}
	if c.FlapsAt == 0 {
		c.FlapsAt = 2
	}
	if c.Decay == 0 {
		c.Decay = 0.5
	}
	return c
}

// Monitor scores every node's health from the cluster's retirement
// counters and (when a SWIM service is attached) the RTT/flap signals.
type Monitor struct {
	cl  *kernel.Cluster
	svc *Service
	cfg HealthConfig

	lastCycles []int64
	lastBusy   []float64
	lastFlaps  []uint64
	baseRTT    []float64 // healthy-floor RTT per node (0 until first sample)

	slowScore []float64
	rttScore  []float64
	flapScore []float64
	degraded  []bool

	// Ticks counts completed scoring rounds (observability for tests).
	Ticks int
}

// NewMonitor builds a health monitor over cl. svc may be nil (CPU signal
// only — e.g. a deployment without SWIM attached).
func NewMonitor(cl *kernel.Cluster, svc *Service, cfg HealthConfig) *Monitor {
	n := cl.NumNodes()
	return &Monitor{
		cl: cl, svc: svc, cfg: cfg.withDefaults(),
		lastCycles: make([]int64, n),
		lastBusy:   make([]float64, n),
		lastFlaps:  make([]uint64, n),
		baseRTT:    make([]float64, n),
		slowScore:  make([]float64, n),
		rttScore:   make([]float64, n),
		flapScore:  make([]float64, n),
		degraded:   make([]bool, n),
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Tick scores every node from the counters accumulated since the last
// tick and updates the degraded marks. Call only between engine steps.
func (m *Monitor) Tick(now float64) {
	m.Ticks++
	for node := 0; node < len(m.degraded); node++ {
		k := m.cl.Kernels[node]
		cyc, busy := k.CyclesRetired, k.BusySeconds
		if m.cl.NodeDown(node) {
			// Fail-stop is SWIM's job; freeze the gray scores and resync the
			// deltas so the outage does not read as a retire-rate cliff.
			m.lastCycles[node], m.lastBusy[node] = cyc, busy
			if m.svc != nil {
				m.lastFlaps[node] = m.svc.FlapsTowards(node)
			}
			continue
		}
		// Retire-rate signal: a gray CPU retires the same cycles in more
		// wall time, so cycles-per-busy-second sags below the nominal clock.
		dc, db := cyc-m.lastCycles[node], busy-m.lastBusy[node]
		m.lastCycles[node], m.lastBusy[node] = cyc, busy
		if db > 1e-9 && dc > 0 {
			factor := db * k.Desc.ClockHz / float64(dc)
			m.slowScore[node] = clamp01((factor - 1) / (m.cfg.SlowAt - 1))
		} else {
			// Idle interval: no measurement, decay toward healthy.
			m.slowScore[node] *= m.cfg.Decay
		}
		if m.svc != nil {
			// RTT inflation over the node's own healthy floor.
			if agg, ok := m.svc.RTTTowards(node); ok {
				if m.baseRTT[node] == 0 || agg < m.baseRTT[node] {
					m.baseRTT[node] = agg
				}
				infl := agg / m.baseRTT[node]
				m.rttScore[node] = clamp01((infl - 1) / (m.cfg.RTTAt - 1))
			}
			// Missed-but-refuted suspicions since the last tick.
			f := m.svc.FlapsTowards(node)
			df := f - m.lastFlaps[node]
			m.lastFlaps[node] = f
			inst := clamp01(float64(df) / m.cfg.FlapsAt)
			if decayed := m.flapScore[node] * m.cfg.Decay; inst > decayed {
				m.flapScore[node] = inst
			} else {
				m.flapScore[node] = decayed
			}
		}
		score := m.Score(node)
		if m.degraded[node] {
			if score <= m.cfg.Exit {
				m.degraded[node] = false
			}
		} else if score >= m.cfg.Enter {
			m.degraded[node] = true
		}
	}
}

// Score returns the node's combined health score: 0 healthy, 1 fully
// degraded (the max of the per-signal scores).
func (m *Monitor) Score(node int) float64 {
	s := m.slowScore[node]
	if m.rttScore[node] > s {
		s = m.rttScore[node]
	}
	if m.flapScore[node] > s {
		s = m.flapScore[node]
	}
	return s
}

// Degraded reports whether the node is currently marked degraded (with
// hysteresis applied).
func (m *Monitor) Degraded(node int) bool { return m.degraded[node] }
