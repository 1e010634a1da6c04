package exp

import (
	"testing"

	"heterodc/internal/traffic"
)

func TestFleetRolloutQuick(t *testing.T) {
	series, err := Fleet(Config{Scale: Quick})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if err := FleetInvariantsHold(series); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if len(series) != len(traffic.Kinds()) {
		t.Fatalf("got %d series, want one per arrival process (%d)", len(series), len(traffic.Kinds()))
	}
	for _, s := range series {
		if !s.RolledOut {
			t.Errorf("%s: rollout gated at wave %d/%d (violation rate %.2f); Quick calibration should stay healthy",
				s.Arrivals, len(s.Waves), 5, s.Waves[len(s.Waves)-1].ViolationRate)
		}
		for _, w := range s.Waves {
			if w.ThroughputJobsPerSec <= 0 {
				t.Errorf("%s wave %.0f%%: non-positive throughput", s.Arrivals, w.ArmFrac*100)
			}
			if w.EnergyJ <= 0 {
				t.Errorf("%s wave %.0f%%: non-positive energy", s.Arrivals, w.ArmFrac*100)
			}
		}
		first, last := s.Waves[0], s.Waves[len(s.Waves)-1]
		if first.ArmNodes != 0 || last.ArmNodes != last.Nodes {
			t.Errorf("%s: rollout should sweep 0%% to 100%% ARM, got %d..%d of %d nodes",
				s.Arrivals, first.ArmNodes, last.ArmNodes, last.Nodes)
		}
	}
}

func TestFleetInvariantsReject(t *testing.T) {
	healthyWave := func(frac float64, n int) FleetWave {
		return FleetWave{
			ArmFrac: frac, ArmNodes: int(frac*float64(n) + 0.5), Nodes: n,
			P50Sec: 0.1, P99Sec: 0.2, MaxSec: 0.3,
			Healthy: true, EnginesAgree: true,
		}
	}
	base := func() []FleetSeries {
		s := FleetSeries{Arrivals: "poisson", BudgetFrac: 0.1, RolledOut: true}
		for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
			s.Waves = append(s.Waves, healthyWave(f, 4))
		}
		return []FleetSeries{s}
	}

	if err := FleetInvariantsHold(base()); err != nil {
		t.Fatalf("healthy sweep rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func([]FleetSeries)
	}{
		{"engine divergence", func(s []FleetSeries) { s[0].Waves[2].EnginesAgree = false }},
		{"advance while violating", func(s []FleetSeries) {
			s[0].Waves[1].Healthy = false
			s[0].Waves[1].ViolationRate = 0.5
		}},
		{"quantiles out of order", func(s []FleetSeries) { s[0].Waves[3].P50Sec = 0.9 }},
		{"verdict inconsistent with budget", func(s []FleetSeries) { s[0].Waves[0].ViolationRate = 0.9 }},
		{"rolled-out without full sweep", func(s []FleetSeries) { s[0].Waves = s[0].Waves[:3] }},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(s)
		if err := FleetInvariantsHold(s); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
