package msg_test

import (
	"testing"

	"heterodc/internal/fault"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/member"
	"heterodc/internal/topo"
)

// TestIdleFleetTouchesFewLinks runs the idle fleet's scenario at 1024
// nodes — a fat tree of 16-node racks, SWIM at 1 ms, node 1 crashed for
// good at round 40 — to round 80 and counts the directed pairs whose link
// ever numbered a leg. A node talks to the peers its rotation probes, the
// probers that pick it and a few witnesses, so the share stays near what
// 80 rounds of rotation reach: a death adds no fan-out, and most of the
// dense per-link table stays zero.
func TestIdleFleetTouchesFewLinks(t *testing.T) {
	const n, period, rounds = 1024, 1e-3, 80
	arches := make([]isa.Arch, n)
	for i := range arches {
		arches[i] = isa.Arches[i%len(isa.Arches)]
	}
	cl, _, err := kernel.NewClusterTopo(arches, kernel.DefaultInterconnect(),
		topo.Spec{Kind: topo.KindFatTree, Racks: n / 16, Oversub: 4})
	if err != nil {
		t.Fatal(err)
	}
	cl.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Node: 1, At: rounds / 2 * period}}})
	s, err := member.Attach(cl, member.Config{HeartbeatPeriod: period, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(rounds * period)
	if d := s.Deaths(); len(d) != 1 || d[0].Node != 1 {
		t.Fatalf("deaths %+v, want node 1's", d)
	}
	share := float64(cl.IC.TouchedLinks()) / float64(n*(n-1))
	t.Logf("%.1f %% of directed pairs touched by round %d", 100*share, rounds)
	if share >= 0.20 {
		t.Errorf("%.1f %% of directed pairs touched by round %d, want under 20 %%", 100*share, rounds)
	}
}
