package msg

// PathModel seam: every delivery time (Send, RoundTripTime, MinLatency,
// duplicate redelivery) comes from the installed model, the flat pipe
// unless SetPathModel replaced it.

import (
	"fmt"
	"math"
	"testing"

	"heterodc/internal/topo"
)

// stubPath is a minimal two-node PathModel with a fixed per-message cost
// and a call log, enough to prove the interconnect consults it.
type stubPath struct {
	n         int
	lat       float64
	bw        float64
	busyUntil float64
	transmits int
	estimates int
}

func (p *stubPath) Grow(n int) error {
	if n > p.n {
		return fmt.Errorf("stub path joins %d nodes, not %d", p.n, n)
	}
	return nil
}
func (p *stubPath) MinLatency() float64 { return p.lat }
func (p *stubPath) Domain(int) int      { return 0 }
func (p *stubPath) NumDomains() int     { return 1 }
func (p *stubPath) Transmit(now float64, from, to int, wire int64) float64 {
	p.transmits++
	start := now
	if p.busyUntil > start {
		start = p.busyUntil
	}
	p.busyUntil = start + float64(wire)/p.bw
	return p.busyUntil + p.lat
}
func (p *stubPath) Estimate(now float64, from, to int, wire int64) float64 {
	p.estimates++
	start := now
	if p.busyUntil > start {
		start = p.busyUntil
	}
	return start + float64(wire)/p.bw + p.lat
}

func TestPathModelDrivesDelivery(t *testing.T) {
	ic := New(testCfg())
	ic.Grow(2)
	pm := &stubPath{n: 2, lat: 5e-6, bw: 1e8}
	if err := ic.SetPathModel(pm); err != nil {
		t.Fatalf("SetPathModel: %v", err)
	}
	if ic.Path() != PathModel(pm) {
		t.Fatalf("installed path model not reported")
	}
	if got := ic.MinLatency(); got != 5e-6 {
		t.Fatalf("MinLatency = %g, want the model's 5e-6", got)
	}
	d := ic.Send(0, 0, 1, TFSOp, 1000, nil)
	want := 1000/1e8 + 5e-6
	if math.Abs(d-want) > 1e-15 {
		t.Fatalf("fabric delivery = %g, want %g", d, want)
	}
	if pm.transmits != 1 {
		t.Fatalf("model saw %d transmits, want 1", pm.transmits)
	}
	// Occupancy lives in the model: a second send queues behind the first.
	d2 := ic.Send(0, 0, 1, TFSOp, 1000, nil)
	if d2 <= d {
		t.Fatalf("second send %g did not queue behind first %g", d2, d)
	}
	// RTT estimates both legs through the model without consuming occupancy.
	before := pm.busyUntil
	ic.RoundTripTime(d2, 0, 1, 4096)
	if pm.estimates != 2 {
		t.Fatalf("RTT made %d estimates, want 2", pm.estimates)
	}
	if pm.busyUntil != before {
		t.Fatalf("RTT consumed occupancy: busyUntil %g -> %g", before, pm.busyUntil)
	}
}

func TestPathModelValidation(t *testing.T) {
	ic := New(testCfg())
	ic.Grow(4)
	small := &stubPath{n: 2, lat: 1e-6, bw: 1e9}
	err := ic.SetPathModel(small)
	if want := small.Grow(4); err == nil || err.Error() != want.Error() {
		t.Fatalf("model smaller than the interconnect: SetPathModel returned %v, want the model's %v", err, want)
	}
	if _, ok := ic.Path().(*pipe); !ok {
		t.Fatalf("a refused model replaced the flat pipe")
	}
	fab, err := topo.Build(topo.FatTree(2, 1), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ic.SetPathModel(fab); err != nil {
		t.Fatalf("covering fabric rejected: %v", err)
	}
	ic.Grow(8) // up to the fabric's size is fine
	defer func() {
		if recover() == nil {
			t.Fatalf("growing past the fabric did not panic")
		}
	}()
	ic.Grow(9)
}

// New's path model is the flat pipe: the configured latency is its
// lookahead floor, every node is in one sharing domain, and a lazily grown
// interconnect schedules exactly as one sized up front.
func TestFlatPathUnchangedWithoutModel(t *testing.T) {
	cfg := testCfg()
	a, b := New(cfg), New(cfg)
	b.Grow(2)
	for _, ic := range []*Interconnect{a, b} {
		p, ok := ic.Path().(*pipe)
		if !ok || p != &ic.flat {
			t.Fatalf("New's path model is %T, want the interconnect's own pipe", ic.Path())
		}
		if got := ic.MinLatency(); got != cfg.LatencySec {
			t.Fatalf("MinLatency = %g, want the configured %g", got, cfg.LatencySec)
		}
		if got := p.NumDomains(); got != 1 {
			t.Fatalf("NumDomains = %d, want 1", got)
		}
		for node := 0; node < 4; node++ {
			if d := p.Domain(node); d != 0 {
				t.Fatalf("Domain(%d) = %d, want 0", node, d)
			}
		}
	}
	for i := 0; i < 10; i++ {
		now := float64(i) * 1e-6
		da := a.Send(now, 0, 1, TPageReply, int64(100*i), nil)
		db := b.Send(now, 0, 1, TPageReply, int64(100*i), nil)
		if da != db {
			t.Fatalf("send %d: lazily grown %g vs presized %g", i, da, db)
		}
	}
	ra := a.RoundTripTime(1e-3, 1, 0, 4096)
	rb := b.RoundTripTime(1e-3, 1, 0, 4096)
	if ra != rb {
		t.Fatalf("RTT diverged: %g vs %g", ra, rb)
	}
}
