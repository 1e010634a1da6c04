package msg

import (
	"math"
	"math/rand"
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

// refFlat is the flat cost model as the interconnect computed it inline
// before the pipe was a PathModel: per-directed-link occupancy and
// sequence numbers, each link's formula written out in its original
// operation order.
type refFlat struct {
	cfg  Config
	busy map[[2]int]float64
	seqs map[[2]int]uint64
}

func (r *refFlat) send(now float64, from, to int, size int64) (float64, uint64) {
	wire := size + r.cfg.HeaderBytes
	lk := [2]int{from, to}
	start := now
	if b := r.busy[lk]; b > start {
		start = b
	}
	txEnd := start + float64(wire)/r.cfg.BytesPerSec
	r.busy[lk] = txEnd
	r.seqs[lk]++
	return txEnd + r.cfg.LatencySec, r.seqs[lk]
}

func (r *refFlat) rtt(now float64, from, to int, replySize int64) float64 {
	start := now
	if b := r.busy[[2]int{from, to}]; b > start {
		start = b
	}
	arrive := start + float64(r.cfg.HeaderBytes)/r.cfg.BytesPerSec + r.cfg.LatencySec
	replyStart := arrive
	if b := r.busy[[2]int{to, from}]; b > replyStart {
		replyStart = b
	}
	done := replyStart + float64(replySize+r.cfg.HeaderBytes)/r.cfg.BytesPerSec + r.cfg.LatencySec
	return done - now
}

// The flat pipe computes exactly what the interconnect computed inline:
// seeded random sends, self-sends and round-trip estimates on a fleet that
// grows in the middle of the traffic give bit-equal delivery times,
// sequence numbers and RTTs, and occupancy written before the growth is
// still waited for after it.
func TestFlatPipeMatchesReference(t *testing.T) {
	cfg := Config{LatencySec: 0.9e-6, BytesPerSec: 8e9, HeaderBytes: 64}
	ref := &refFlat{cfg: cfg, busy: map[[2]int]float64{}, seqs: map[[2]int]uint64{}}
	ic := New(cfg)
	ic.Grow(3)
	rng := rand.New(rand.NewSource(5))
	now, nodes, queuedAcrossGrow := 0.0, 3, 0
	for i := 0; i < 4000; i++ {
		if i == 2000 {
			ic.Grow(5)
			nodes = 5
			// Links occupied before the growth keep their occupancy.
			for from := 0; from < 3; from++ {
				for to := 0; to < 3; to++ {
					if b := ref.busy[[2]int{from, to}]; b > now {
						d, s := sendPop(t, ic, now, from, to, 0)
						rd, rs := ref.send(now, from, to, 0)
						if d != rd || s != rs {
							t.Fatalf("after growth %d->%d: (%v, seq %d), want (%v, seq %d)", from, to, d, s, rd, rs)
						}
						queuedAcrossGrow++
					}
				}
			}
		}
		if rng.Intn(3) == 0 {
			now += rng.Float64() * 2e-6
		}
		from, to := rng.Intn(nodes), rng.Intn(nodes)
		if rng.Intn(8) == 0 {
			to = from
		}
		size := int64(rng.Intn(16384))
		if rng.Intn(4) == 0 {
			got, want := ic.RoundTripTime(now, from, to, size), ref.rtt(now, from, to, size)
			if got != want {
				t.Fatalf("op %d: RTT %d->%d = %v, want %v", i, from, to, got, want)
			}
			continue
		}
		d, s := sendPop(t, ic, now, from, to, size)
		if rd, rs := ref.send(now, from, to, size); d != rd || s != rs {
			t.Fatalf("op %d: send %d->%d = (%v, seq %d), want (%v, seq %d)", i, from, to, d, s, rd, rs)
		}
	}
	if queuedAcrossGrow == 0 {
		t.Fatal("no link was occupied across the growth; the test checks nothing there")
	}
}

// The flat pipe owns its occupancy table, so installing a path model and
// later putting the interconnect's own pipe back (SetPathModel(Path()) as
// saved before the swap) loses nothing: occupancy written before the model
// is waited for after it, a pipe that was never occupied comes back with a
// zeroed table sized to the interconnect, and delivery times and sequence
// numbers are those of an interconnect that never had a model.
func TestOccupancySurvivesPathModel(t *testing.T) {
	const n = 3

	t.Run("occupied table is kept", func(t *testing.T) {
		// The reference is sized once, before any traffic; ic grows while
		// its pipe is set aside.
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
		flat := ic.Path()
		if err := ic.SetPathModel(&stubPath{n: 8, lat: 5e-6, bw: 1e8}); err != nil {
			t.Fatal(err)
		}
		// Traffic and growth under the model: sequence numbers count on.
		// The reference carries the same traffic on its flat pipe.
		ic.Grow(n + 1)
		for i := 0; i < 4; i++ {
			sendPop(t, ic, 0, 1, 2, 512)
			sendPop(t, ref, 0, 1, 2, 512)
		}
		if err := ic.SetPathModel(flat); err != nil {
			t.Fatal(err)
		}
		if p := flat.(*pipe); p.n != n+1 || len(p.freeAt) != (n+1)*(n+1) {
			t.Fatalf("restored pipe covers %d nodes in %d cells, want %d in %d", p.n, len(p.freeAt), n+1, (n+1)*(n+1))
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
		earlyFlat := early.Path()
		if err := early.SetPathModel(&stubPath{n: 8, lat: 5e-6, bw: 1e8}); err != nil {
			t.Fatal(err)
		}
		early.Grow(n)
		late := New(testCfg()) // installed after it
		late.Grow(n)
		lateFlat := late.Path()
		if err := late.SetPathModel(&stubPath{n: 8, lat: 5e-6, bw: 1e8}); err != nil {
			t.Fatal(err)
		}
		ref := New(testCfg())
		ref.Grow(n)
		for _, c := range []struct {
			ic   *Interconnect
			flat PathModel
		}{{early, earlyFlat}, {late, lateFlat}} {
			// Model traffic moves only the sequence numbers.
			sendPop(t, c.ic, 0, 2, 0, 512)
			if err := c.ic.SetPathModel(c.flat); err != nil {
				t.Fatal(err)
			}
			p := c.flat.(*pipe)
			if p.n != n || len(p.freeAt) != n*n {
				t.Fatalf("restored pipe covers %d nodes in %d cells, want %d in %d", p.n, len(p.freeAt), n, n*n)
			}
			for _, b := range p.freeAt {
				if b != 0 {
					t.Fatalf("restored table is not zeroed: %v", p.freeAt)
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
