package msg

import (
	"math"
	"testing"
)

// sendPop sends a from->to message at now and pops it off to's queue,
// returning its delivery time and sequence number.
func sendPop(t *testing.T, ic *Interconnect, now float64, from, to int, size int64) (float64, uint64) {
	t.Helper()
	d := ic.Send(now, from, to, TFSOp, size, nil)
	m := ic.PopDue(to, math.Inf(1))
	if m == nil || m.Deliver != d {
		t.Fatalf("%d->%d: sent message not popped", from, to)
	}
	return d, m.Seq
}

// The flat pipe's occupancy table exists only while the flat pipe may read
// it, and dropping or re-creating it is invisible: occupancy written before
// a path model is installed is used again once it is removed, a table that
// was never occupied comes back zeroed, and delivery times and sequence
// numbers are those of an interconnect that never had a model.
func TestOccupancySurvivesPathModel(t *testing.T) {
	const n = 3
	cells := func(nodes, perLink int) int { return nodes * nodes * perLink }

	t.Run("occupied table is kept", func(t *testing.T) {
		// The reference is sized once, before any traffic; ic grows with
		// occupied tables.
		ref, ic := New(testCfg()), New(testCfg())
		ref.Grow(n + 1)
		ic.Grow(n)
		// Occupy 0->1 and 2->1 on both: a later send on either queues
		// behind these until about 4 µs.
		for _, from := range []int{0, 2} {
			if d0, _ := sendPop(t, ref, 0, from, 1, 4096); d0 != ic.Send(0, from, 1, TFSOp, 4096, nil) {
				t.Fatalf("flat sends differ before any model")
			}
			ic.PopDue(1, math.Inf(1))
		}
		if err := ic.SetPathModel(&stubPath{n: 8, lat: 5e-6, bw: 1e8}); err != nil {
			t.Fatal(err)
		}
		if got := ic.LinkBytes(); got != cells(n, 16) {
			t.Fatalf("occupied table dropped: link tables hold %d bytes, want %d", got, cells(n, 16))
		}
		// Traffic and growth under the model: sequence numbers count on,
		// the occupied table grows with the interconnect. The reference
		// carries the same traffic on its flat pipe.
		ic.Grow(n + 1)
		for i := 0; i < 4; i++ {
			sendPop(t, ic, 0, 1, 2, 512)
			sendPop(t, ref, 0, 1, 2, 512)
		}
		if err := ic.SetPathModel(nil); err != nil {
			t.Fatal(err)
		}
		// Links the model phase left alone match the reference exactly,
		// occupancy included; every link's sequence numbers match.
		for _, l := range [][2]int{{0, 1}, {2, 1}, {1, 0}, {0, 3}, {1, 2}} {
			from, to := l[0], l[1]
			d0, s0 := sendPop(t, ref, 1e-6, from, to, 1024)
			d1, s1 := sendPop(t, ic, 1e-6, from, to, 1024)
			if s0 != s1 {
				t.Errorf("%d->%d: seq %d, want %d", from, to, s1, s0)
			}
			if l != [2]int{1, 2} && d0 != d1 {
				t.Errorf("%d->%d: delivery %g, want %g", from, to, d1, d0)
			}
		}
		if r0, r1 := ref.RoundTripTime(0, 1, 0, 4096), ic.RoundTripTime(0, 1, 0, 4096); r0 != r1 {
			t.Errorf("RTT %g, want %g", r1, r0)
		}
	})

	t.Run("table never occupied comes back zeroed", func(t *testing.T) {
		early := New(testCfg()) // the model installed before the first Grow
		if err := early.SetPathModel(&stubPath{n: 8, lat: 5e-6, bw: 1e8}); err != nil {
			t.Fatal(err)
		}
		early.Grow(n)
		late := New(testCfg()) // installed after it
		late.Grow(n)
		if err := late.SetPathModel(&stubPath{n: 8, lat: 5e-6, bw: 1e8}); err != nil {
			t.Fatal(err)
		}
		ref := New(testCfg())
		ref.Grow(n)
		for _, ic := range []*Interconnect{early, late} {
			if got := ic.LinkBytes(); got != cells(n, 8) {
				t.Fatalf("link tables hold %d bytes under a model, want %d", got, cells(n, 8))
			}
			// Model traffic moves only the sequence numbers.
			sendPop(t, ic, 0, 2, 0, 512)
			if err := ic.SetPathModel(nil); err != nil {
				t.Fatal(err)
			}
			if got := ic.LinkBytes(); got != cells(n, 16) {
				t.Fatalf("flat pipe restored without its table: %d bytes, want %d", got, cells(n, 16))
			}
			for _, b := range ic.busy {
				if b != 0 {
					t.Fatalf("restored table is not zeroed: %v", ic.busy)
				}
			}
		}
		sendPop(t, ref, 0, 2, 0, 512)
		for i := 0; i < 6; i++ {
			now, from, to := float64(i)*1e-7, i%n, (i+2)%n
			d0, s0 := sendPop(t, ref, now, from, to, int64(300*i))
			for name, ic := range map[string]*Interconnect{"early": early, "late": late} {
				if d1, s1 := sendPop(t, ic, now, from, to, int64(300*i)); d1 != d0 || s1 != s0 {
					t.Errorf("%s send %d %d->%d: (%g, seq %d), want (%g, seq %d)", name, i, from, to, d1, s1, d0, s0)
				}
			}
		}
	})
}
