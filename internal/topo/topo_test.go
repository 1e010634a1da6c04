package topo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func mustBuild(t *testing.T, s Spec, n int) *Fabric {
	t.Helper()
	f, err := Build(s, n)
	if err != nil {
		t.Fatalf("Build(%+v, %d): %v", s, n, err)
	}
	if f == nil {
		t.Fatalf("Build(%+v, %d): nil fabric", s, n)
	}
	return f
}

func TestFlatSpecBuildsNoFabric(t *testing.T) {
	f, err := Build(FlatSpec(), 8)
	if err != nil {
		t.Fatalf("flat build: %v", err)
	}
	if f != nil {
		t.Fatalf("flat spec built a fabric: %+v", f)
	}
	f, err = Build(Spec{}, 8) // the zero spec is flat too
	if err != nil || f != nil {
		t.Fatalf("zero spec: fabric=%v err=%v", f, err)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Kind: "torus"},
		{Kind: KindFatTree, Racks: -1},
		{Kind: KindFatTree, Oversub: -2},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid spec", s)
		}
	}
	if err := FatTree(4, 8).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if _, err := Build(Spec{Kind: KindFatTree, Racks: 2, CutUplinks: []int{5}}, 4); err == nil {
		t.Errorf("Build accepted a cut for a nonexistent rack")
	}
}

func TestRouteShapes(t *testing.T) {
	f := mustBuild(t, FatTree(2, 4), 6) // racks {0,1,2} and {3,4,5}
	if f.PerRack() != 3 || f.Racks() != 2 {
		t.Fatalf("shape: perRack=%d racks=%d", f.PerRack(), f.Racks())
	}
	if r, ok := f.Route(1, 1); !ok || len(r) != 0 {
		t.Errorf("self route = %v, %v; want empty, true", r, ok)
	}
	in, ok := f.Route(0, 2)
	if !ok || len(in) != 2 {
		t.Fatalf("in-rack route = %v, %v; want 2 hops", in, ok)
	}
	if in[0] != f.AccessUp(0) || in[1] != f.AccessDown(2) {
		t.Errorf("in-rack route %v, want [%d %d]", in, f.AccessUp(0), f.AccessDown(2))
	}
	cross, ok := f.Route(0, 4)
	if !ok || len(cross) != 4 {
		t.Fatalf("cross-rack route = %v, %v; want 4 hops", cross, ok)
	}
	want := []int{f.AccessUp(0), f.UplinkUp(0), f.UplinkDown(1), f.AccessDown(4)}
	for i, id := range want {
		if cross[i] != id {
			t.Errorf("cross-rack hop %d = %d, want %d", i, cross[i], id)
		}
	}
	if _, ok := f.Route(0, 99); ok {
		t.Errorf("out-of-range destination routed")
	}
}

func TestBottleneckSerialization(t *testing.T) {
	// Oversub 4 on 3-node racks: uplink bandwidth = 3*access/4 < access, so
	// a cross-rack message serialises at the uplink rate.
	s := FatTree(2, 4)
	f := mustBuild(t, s, 6)
	spec := f.Spec()
	const wire = int64(1 << 20)
	uplinkBW := float64(f.PerRack()) * DefaultAccessBytesPerSec / spec.Oversub
	if uplinkBW >= DefaultAccessBytesPerSec {
		t.Fatalf("test premise broken: uplink %g not slower than access %g", uplinkBW, DefaultAccessBytesPerSec)
	}
	got := f.Transmit(0, 0, 4, wire)
	want := 4*DefaultHopLatencySec + float64(wire)/uplinkBW
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("cross-rack transmit = %.9g, want %.9g (bottleneck at uplink)", got, want)
	}
	// In-rack the access link is the bottleneck.
	got = f.Transmit(100, 0, 1, wire)
	want = 100 + 2*DefaultHopLatencySec + float64(wire)/DefaultAccessBytesPerSec
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("in-rack transmit = %.9g, want %.9g", got, want)
	}
}

func TestOversubscribedUplinkSharing(t *testing.T) {
	// Two senders in rack 0 target rack 1 at the same instant: distinct
	// access links, one shared uplink. The second transfer must queue for
	// the uplink's serialisation of the first.
	f := mustBuild(t, FatTree(2, 4), 6)
	spec := f.Spec()
	const wire = int64(1 << 20)
	uplinkBW := float64(f.PerRack()) * DefaultAccessBytesPerSec / spec.Oversub
	first := f.Transmit(0, 0, 3, wire)
	second := f.Transmit(0, 1, 4, wire)
	if second <= first {
		t.Fatalf("shared uplink did not contend: first=%.9g second=%.9g", first, second)
	}
	// The uplink holds the second transfer until the first drains off it.
	if min := float64(wire) / uplinkBW; second-first < min/2 {
		t.Errorf("contention too weak: gap %.9g vs uplink serialisation %.9g", second-first, min)
	}
	up := f.UplinkStats()
	if len(up) == 0 || up[0].Queued == 0 {
		t.Errorf("uplink stats recorded no queueing: %+v", up)
	}
	// An idle-rack in-rack transfer is unaffected by the uplink jam.
	inRack := f.Transmit(0, 4, 5, wire)
	want := 2*DefaultHopLatencySec + float64(wire)/DefaultAccessBytesPerSec
	if math.Abs(inRack-want) > 1e-12 {
		t.Errorf("in-rack transfer disturbed by uplink contention: %.9g want %.9g", inRack, want)
	}
}

func TestEstimateConsumesNoOccupancy(t *testing.T) {
	f := mustBuild(t, FatTree(2, 4), 6)
	e1 := f.Estimate(0, 0, 4, 1<<20)
	e2 := f.Estimate(0, 0, 4, 1<<20)
	if e1 != e2 {
		t.Fatalf("estimate mutated occupancy: %.9g then %.9g", e1, e2)
	}
	tx := f.Transmit(0, 0, 4, 1<<20)
	if tx != e1 {
		t.Errorf("transmit %.9g disagrees with prior estimate %.9g on an idle fabric", tx, e1)
	}
	if e3 := f.Estimate(0, 0, 4, 1<<20); e3 <= e1 {
		t.Errorf("estimate ignores occupancy left by transmit: %.9g vs %.9g", e3, e1)
	}
}

func TestMinLatencyAsymmetricFabric(t *testing.T) {
	f := mustBuild(t, FatTree(2, 1), 4)
	if got, want := f.MinLatency(), 2*DefaultHopLatencySec; math.Abs(got-want) > 1e-18 {
		t.Fatalf("uniform min latency = %g, want %g", got, want)
	}
	// Slow down every link touching nodes 0 and 1 except the 2<->3 pair,
	// then verify MinLatency tracks the true minimum over all pairs.
	f.SetLinkLatency(f.AccessUp(0), 9e-6)
	f.SetLinkLatency(f.AccessDown(0), 9e-6)
	f.SetLinkLatency(f.AccessUp(1), 7e-6)
	f.SetLinkLatency(f.AccessDown(1), 7e-6)
	min := math.Inf(1)
	for from := 0; from < f.Nodes(); from++ {
		for to := 0; to < f.Nodes(); to++ {
			if from == to {
				continue
			}
			if lat := f.Estimate(0, from, to, 0); lat < min {
				min = lat
			}
		}
	}
	if got := f.MinLatency(); math.Abs(got-min) > 1e-18 {
		t.Errorf("asymmetric min latency = %g, brute force says %g", got, min)
	}
	// The surviving fast path is still 2<->3 at two default hops.
	if got, want := f.MinLatency(), 2*DefaultHopLatencySec; math.Abs(got-want) > 1e-18 {
		t.Errorf("asymmetric min latency = %g, want untouched pair at %g", got, want)
	}
}

func TestCutUplinksUnrouteable(t *testing.T) {
	f := mustBuild(t, Spec{Kind: KindFatTree, Racks: 2, CutUplinks: []int{1}}, 4)
	if _, ok := f.Route(0, 2); ok {
		t.Errorf("route into a cut rack succeeded")
	}
	if _, ok := f.Route(2, 0); ok {
		t.Errorf("route out of a cut rack succeeded")
	}
	if _, ok := f.Route(2, 3); !ok {
		t.Errorf("in-rack route inside the cut rack should survive")
	}
	pairs := f.UnrouteablePairs()
	if len(pairs) != 8 { // 2x2 pairs in each direction
		t.Errorf("unrouteable pairs = %v, want 8 entries", pairs)
	}
	if !math.IsInf(f.MinLatency(), 0) == false && f.MinLatency() <= 0 {
		t.Errorf("min latency invalid on a cut fabric: %g", f.MinLatency())
	}
}

func TestLegsComposeWithRouting(t *testing.T) {
	f := mustBuild(t, FatTree(2, 1), 6)
	legs := f.Legs(f.UplinkUp(1))
	// Every rack-1 node to every rack-0 node, and nothing else.
	want := map[[2]int]bool{}
	for from := 3; from < 6; from++ {
		for to := 0; to < 3; to++ {
			want[[2]int{from, to}] = true
		}
	}
	if len(legs) != len(want) {
		t.Fatalf("Legs(uplinkUp(1)) = %v, want %d legs", legs, len(want))
	}
	for _, l := range legs {
		if !want[l] {
			t.Errorf("unexpected leg %v through rack 1's uplink", l)
		}
	}
	// And each leg's route really does traverse the link.
	for _, l := range legs {
		r, ok := f.Route(l[0], l[1])
		if !ok {
			t.Fatalf("leg %v unrouteable", l)
		}
		found := false
		for _, id := range r {
			if id == f.UplinkUp(1) {
				found = true
			}
		}
		if !found {
			t.Errorf("leg %v route %v misses the uplink", l, r)
		}
	}
}

// splitmix64, the repo's standard deterministic stream.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// TestInRackNeverSlowerThanCrossRack is the property test: for randomized
// fabric shapes and link parameters, an idle-fabric in-rack transfer never
// costs more than a cross-rack transfer of the same size.
func TestInRackNeverSlowerThanCrossRack(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		h := mix(seed)
		racks := 2 + int(h%6)
		h = mix(h)
		perRackWanted := 2 + int(h%6)
		n := racks * perRackWanted
		h = mix(h)
		oversub := 1 + float64(h%32)/2 // 1..16.5
		s := Spec{Kind: KindFatTree, Racks: racks, Oversub: oversub}
		f, err := Build(s, n)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		h = mix(h)
		wire := int64(64 + h%(1<<20))
		for r := 0; r < f.Racks()-1; r++ {
			a := r * f.PerRack()
			in := f.Estimate(0, a, a+1, wire)
			cross := f.Estimate(0, a, a+f.PerRack(), wire)
			if in > cross {
				t.Fatalf("seed %d (racks=%d perRack=%d oversub=%.1f): in-rack %.9g > cross-rack %.9g",
					seed, racks, f.PerRack(), oversub, in, cross)
			}
		}
	}
}

// TestUnrouteableMatchesEnumeration holds UnrouteablePairs and
// Unrouteable, which read only the cut racks, to route() asked about every
// ordered pair, over seeded random fabrics and cuts.
func TestUnrouteableMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		n := 1 + r.Intn(40)
		spec := FatTree(1+r.Intn(n), 1)
		racks := mustBuild(t, spec, n).Racks()
		for c := r.Intn(racks + 1); c > 0; c-- {
			spec.CutUplinks = append(spec.CutUplinks, r.Intn(racks))
		}
		f := mustBuild(t, spec, n)
		var want [][2]int
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if _, _, ok := f.route(from, to); from != to && !ok {
					want = append(want, [2]int{from, to})
				}
			}
		}
		if got := f.UnrouteablePairs(); !slices.Equal(got, want) {
			t.Fatalf("%d nodes, %+v: UnrouteablePairs %d pairs, route() %d", n, spec, len(got), len(want))
		}
		k, first := f.Unrouteable()
		if k != len(want) || k > 0 && first != want[0] {
			t.Fatalf("%d nodes, %+v: Unrouteable %d first %v, route() %d first %v", n, spec, k, first, len(want), want[:min(1, len(want))])
		}
	}
}

// TestMinLatencyMatchesEnumeration holds MinLatency, which reads the racks,
// bit for bit to the minimum over every routeable ordered pair with the hop
// latencies summed from the source, over seeded random fabrics, cut
// uplinks and per-link latency overrides (some of them tied).
func TestMinLatencyMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	lats := []float64{0.1e-6, 0.3e-6, DefaultHopLatencySec, 1.7e-6}
	for i := 0; i < 600; i++ {
		n := 1 + r.Intn(40)
		spec := FatTree(1+r.Intn(n), 1)
		racks := mustBuild(t, spec, n).Racks()
		for c := r.Intn(racks + 1); c > 0; c-- {
			spec.CutUplinks = append(spec.CutUplinks, r.Intn(racks))
		}
		f := mustBuild(t, spec, n)
		for c := r.Intn(3 * n); c > 0; c-- {
			lat := lats[r.Intn(len(lats))]
			if r.Intn(2) == 0 {
				lat = r.Float64() * 2e-6
			}
			f.SetLinkLatency(r.Intn(len(f.links)), lat)
		}
		want := math.Inf(1)
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				hops, nh, ok := f.route(from, to)
				if from == to || !ok {
					continue
				}
				lat := 0.0
				for _, id := range hops[:nh] {
					lat += f.links[id].latencySec
				}
				if lat < want {
					want = lat
				}
			}
		}
		if math.IsInf(want, 1) {
			want = DefaultHopLatencySec
		}
		if got := f.MinLatency(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d nodes, %+v: MinLatency %.17g, enumeration %.17g", n, spec, got, want)
		}
	}
}

// TestLinkNames: every link is named by what it joins, as the builder named
// it when it stored the names.
func TestLinkNames(t *testing.T) {
	f := mustBuild(t, Spec{Kind: KindFatTree, Racks: 4, CutUplinks: []int{2}}, 11)
	stats := f.LinkStats()
	want := map[int]string{}
	for nd := 0; nd < f.Nodes(); nd++ {
		want[f.AccessUp(nd)] = fmt.Sprintf("n%d->tor%d", nd, f.Rack(nd))
		want[f.AccessDown(nd)] = fmt.Sprintf("tor%d->n%d", f.Rack(nd), nd)
	}
	for r := 0; r < f.Racks(); r++ {
		if f.UplinkUp(r) >= 0 {
			want[f.UplinkUp(r)] = fmt.Sprintf("tor%d->spine", r)
			want[f.UplinkDown(r)] = fmt.Sprintf("spine->tor%d", r)
		}
	}
	if len(stats) != len(want) {
		t.Fatalf("%d links, want %d", len(stats), len(want))
	}
	for _, ls := range stats {
		if ls.Name != want[ls.ID] {
			t.Errorf("link %d is named %q, want %q", ls.ID, ls.Name, want[ls.ID])
		}
	}
}
