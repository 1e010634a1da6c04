package msg

// PathModel seam: an installed fabric replaces the flat pipe's
// delivery-time computation (Send, RoundTripTime, MinLatency, duplicate
// redelivery) while the flat path stays byte-for-byte untouched when no
// model is installed.

import (
	"math"
	"testing"
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

func (p *stubPath) Nodes() int          { return p.n }
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
	if ic.Path() != pm {
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
	if err := ic.SetPathModel(&stubPath{n: 2, lat: 1e-6, bw: 1e9}); err == nil {
		t.Fatalf("model smaller than the interconnect accepted")
	}
	if err := ic.SetPathModel(&stubPath{n: 8, lat: 1e-6, bw: 1e9}); err != nil {
		t.Fatalf("covering model rejected: %v", err)
	}
	ic.Grow(8) // up to the model's size is fine
	defer func() {
		if recover() == nil {
			t.Fatalf("growing past the path model did not panic")
		}
	}()
	ic.Grow(9)
}

func TestFlatPathUnchangedWithoutModel(t *testing.T) {
	// The seam is cost-neutral when unused: an interconnect that never saw
	// SetPathModel computes the exact flat-pipe schedule.
	cfg := testCfg()
	a, b := New(cfg), New(cfg)
	b.Grow(2)
	if err := b.SetPathModel(nil); err != nil {
		t.Fatalf("SetPathModel(nil): %v", err)
	}
	for i := 0; i < 10; i++ {
		now := float64(i) * 1e-6
		da := a.Send(now, 0, 1, TPageReply, int64(100*i), nil)
		db := b.Send(now, 0, 1, TPageReply, int64(100*i), nil)
		if da != db {
			t.Fatalf("send %d: flat %g vs nil-model %g", i, da, db)
		}
	}
	if a.MinLatency() != b.MinLatency() || a.Path() != nil || b.Path() != nil {
		t.Fatalf("nil model perturbed MinLatency/Path")
	}
	ra := a.RoundTripTime(1e-3, 1, 0, 4096)
	rb := b.RoundTripTime(1e-3, 1, 0, 4096)
	if ra != rb {
		t.Fatalf("RTT diverged: %g vs %g", ra, rb)
	}
}
