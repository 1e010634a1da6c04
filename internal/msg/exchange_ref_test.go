package msg

// Every message leg against the code it replaced: the two retransmission
// loops of the reliable exchanges, SendQueued and pushDuplicate, kept here
// as they stood (only the receiver became a parameter) but for the lines
// marked "leg:", which follow the one fate path of Interconnect.leg (fate at
// the send instant, a cut at the jittered delivery instant, then the drop
// draw, one loss counted per leg). Every counter, fate draw, queued message
// and returned instant must be what the reference produces.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"heterodc/internal/fault"
)

// tracef records a diagnostic in node's shard of the tracer, formatting it
// only when one is installed (its arguments are boxed either way).
func (ic *Interconnect) tracef(node int, t float64, kind, format string, args ...interface{}) {
	if ic.tracer != nil {
		ic.tracer.RecordNode(node, t, kind, fmt.Sprintf(format, args...))
	}
}

// refSendReliable is SendReliable's own retransmission loop as it stood
// before the exchanges shared one.
func refSendReliable(ic *Interconnect, now float64, from, to int, t Type, size int64, payload interface{}) (float64, bool) {
	if ic.inj == nil {
		return ic.Send(now, from, to, t, size, payload), true
	}
	ic.ensure(from)
	ic.ensure(to)
	st := &ic.stats[from]
	rx := retx{rto: ic.retxTimeout()}
	for {
		at := now + rx.elapsed
		if ic.inj.NodeDown(to, at) {
			rec, ok := ic.inj.NodeRecoverAt(to, at)
			if !ok {
				st.Exhausted++
				ic.tracef(from, at, "send-fail", "type %d %d->%d: node %d down permanently", t, from, to, to)
				return at, false
			}
			st.CrashStalls++
			rx.elapsed = rec - now + rx.rto
			continue
		}
		if ic.inj.LinkCut(at, from, to) {
			// A partition with a known heal is waited out like a crash; a
			// never-healing cut burns the retry budget at the backoff cadence
			// (the sender cannot distinguish it from loss).
			if heal, ok := ic.inj.LinkClearAt(at, from, to); ok {
				st.PartitionStalls++
				ic.tracef(from, at, "cut-stall", "type %d %d->%d: partitioned until %.6g", t, from, to, heal)
				rx.elapsed = heal - now + rx.rto
				continue
			}
			st.PartitionDrops++
			again := ic.retry(st, &rx)
			ic.tracef(from, at, "retx", "type %d %d->%d cut, retry %d", t, from, to, rx.retries)
			if !again {
				ic.tracef(from, at, "send-fail", "type %d %d->%d: partitioned permanently", t, from, to)
				return at, false
			}
			continue
		}
		m := ic.transmit(at, from, to, t, size, payload)
		drop, dup, jit := ic.inj.Fate(at, from, to, m.Seq)
		if drop && !ic.inj.LinkCut(m.Deliver, from, to) { // leg: a dropped leg that is also cut counts as cut below
			st.Dropped++
			again := ic.retry(st, &rx)
			ic.tracef(from, at, "retx", "type %d %d->%d seq %d retry %d", t, from, to, m.Seq, rx.retries)
			if !again {
				ic.tracef(from, at, "send-fail", "type %d %d->%d: retries exhausted", t, from, to)
				return at, false
			}
			continue
		}
		m.Deliver += jit
		if ic.inj.LinkCut(m.Deliver, from, to) {
			// The cut landed while the leg was in flight: it is lost and the
			// sender retransmits after the timeout.
			st.Dropped++
			st.PartitionDrops++
			again := ic.retry(st, &rx)
			ic.tracef(from, at, "retx", "type %d %d->%d seq %d cut in flight, retry %d", t, from, to, m.Seq, rx.retries)
			if !again {
				ic.tracef(from, at, "send-fail", "type %d %d->%d: partitioned permanently", t, from, to)
				return at, false
			}
			continue
		}
		ic.push(m)
		// Decide the acknowledgement's fate on the reverse link: a lost ack
		// makes the sender retransmit a copy the receiver has already seen.
		// An asymmetric partition that severs only the reverse leg loses the
		// ack the same way.
		ackDrop, _, ackJit := ic.inj.Fate(m.Deliver, to, from, ic.nextSeq(to, from)) // leg: the ack's jitter
		if ic.inj.LinkCut(m.Deliver+ackJit, to, from) {                              // leg: cut at the ack's jittered instant
			ackDrop = true
			st.PartitionDrops++ // leg: a cut ack counts
		}
		if ackDrop {
			st.Dropped++ // leg: a lost ack counts
		}
		if dup || ackDrop {
			refPushDuplicate(ic, st, at+rx.rto, m, m.Deliver+rx.rto) // leg: the copy is sent a timeout after the original
		}
		return m.Deliver, true
	}
}

// refReliableRTT is ReliableRTT's own retransmission loop as it stood
// before the exchanges shared one.
func refReliableRTT(ic *Interconnect, now float64, from, to int, replySize int64) (float64, bool) {
	if ic.inj == nil || from == to {
		return ic.RoundTripTime(now, from, to, replySize), true
	}
	ic.ensure(from)
	ic.ensure(to)
	st := &ic.stats[from]
	rx := retx{rto: ic.retxTimeout()}
	for {
		at := now + rx.elapsed
		if ic.inj.NodeDown(to, at) {
			rec, ok := ic.inj.NodeRecoverAt(to, at)
			if !ok {
				st.Exhausted++
				ic.tracef(from, at, "rtt-fail", "%d->%d: node %d down permanently", from, to, to)
				return rx.elapsed, false
			}
			st.CrashStalls++
			rx.elapsed = rec - now + rx.rto
			continue
		}
		if ic.inj.LinkCut(at, from, to) || ic.inj.LinkCut(at, to, from) {
			// Either leg severed kills the exchange. Stall to the latest
			// known heal over both legs, or burn the retry budget when a cut
			// never heals.
			heal, ok := at, true
			for _, leg := range [2][2]int{{from, to}, {to, from}} {
				if !ic.inj.LinkCut(at, leg[0], leg[1]) {
					continue
				}
				h, o := ic.inj.LinkClearAt(at, leg[0], leg[1])
				if !o {
					ok = false
					break
				}
				if h > heal {
					heal = h
				}
			}
			if ok {
				st.PartitionStalls++
				ic.tracef(from, at, "cut-stall", "rtt %d->%d: partitioned until %.6g", from, to, heal)
				rx.elapsed = heal - now + rx.rto
				continue
			}
			st.PartitionDrops++
			again := ic.retry(st, &rx)
			ic.tracef(from, at, "retx", "rtt %d->%d cut, retry %d", from, to, rx.retries)
			if !again {
				ic.tracef(from, at, "rtt-fail", "%d->%d: partitioned permanently", from, to)
				return rx.elapsed, false
			}
			continue
		}
		reqDrop, _, reqJit := ic.inj.Fate(at, from, to, ic.nextSeq(from, to))
		repDrop, _, repJit := ic.inj.Fate(at, to, from, ic.nextSeq(to, from))
		reqCut, repCut := ic.inj.LinkCut(at+reqJit, from, to), ic.inj.LinkCut(at+repJit, to, from) // leg: cut at the attempt instant plus the leg's jitter
		if !reqDrop && !repDrop && !reqCut && !repCut {                                            // leg: either cut loses the round
			return rx.elapsed + ic.RoundTripTime(at, from, to, replySize) + reqJit + repJit, true
		}
		for _, lost := range [2][2]bool{{reqDrop, reqCut}, {repDrop, repCut}} { // leg: one loss per lost leg
			if lost[1] {
				st.PartitionDrops++
			}
			if lost[0] || lost[1] {
				st.Dropped++
			}
		}
		again := ic.retry(st, &rx)
		ic.tracef(from, at, "retx", "rtt %d->%d retry %d", from, to, rx.retries)
		if !again {
			ic.tracef(from, at, "rtt-fail", "%d->%d: retries exhausted", from, to)
			return rx.elapsed, false
		}
	}
}

// refSendQueued is SendQueued as it stood before every leg shared one fate
// path.
func refSendQueued(ic *Interconnect, now float64, from, to int, t Type, size int64, payload interface{}) (float64, bool) {
	m := ic.transmit(now, from, to, t, size, payload)
	if ic.inj != nil {
		drop, dup, jit := ic.inj.Fate(now, from, to, m.Seq)
		m.Deliver += jit
		if ic.inj.LinkCut(m.Deliver, from, to) {
			ic.stats[from].Dropped++
			ic.stats[from].PartitionDrops++
			if ic.tracer != nil {
				ic.tracef(from, now, "cut", "type %d %d->%d seq %d", t, from, to, m.Seq)
			}
			return m.Deliver, false
		}
		if drop || ic.inj.NodeDown(to, m.Deliver) {
			ic.stats[from].Dropped++
			if ic.tracer != nil {
				ic.tracef(from, now, "drop", "type %d %d->%d seq %d", t, from, to, m.Seq)
			}
			return m.Deliver, false
		}
		if dup {
			refPushDuplicate(ic, &ic.stats[from], now, m, m.Deliver+ic.path.MinLatency()) // leg: the copy is sent with the original
		}
	}
	ic.push(m)
	return m.Deliver, true
}

// refPushDuplicate is pushDuplicate as it stood before every leg shared one
// fate path.
func refPushDuplicate(ic *Interconnect, st *Stats, sent float64, m Message, deliver float64) {
	m.Seq = ic.nextSeq(m.From, m.To)
	drop, _, jit := ic.inj.Fate(sent, m.From, m.To, m.Seq) // leg: the copy draws its own fate
	m.Deliver = deliver + jit                              // leg: and its own jitter
	if ic.inj.LinkCut(m.Deliver, m.From, m.To) {           // leg: cut at the copy's jittered instant
		st.Dropped++ // leg: a cut copy is a lost leg
		st.PartitionDrops++
		return
	}
	if drop { // leg: a dropped copy is a lost leg
		st.Dropped++
		return
	}
	st.Duplicated++
	if d, ok := m.Payload.(Duplicator); ok {
		m.Payload = d.Duplicate()
	}
	ic.push(m)
}

// kindLog keeps each node's trace kinds in order; details are not compared.
type kindLog map[int][]string

func (l kindLog) Record(t float64, kind, detail string) { l[-1] = append(l[-1], kind) }
func (l kindLog) RecordNode(node int, t float64, kind, detail string) {
	l[node] = append(l[node], kind)
}

// randomPlan draws a fault plan over n nodes within [0, span): baseline
// drops, duplicates and jitter, a degraded window, crashes with and without
// recovery, and two-way, one-way and per-leg partitions with and without a
// heal.
func randomPlan(rng *rand.Rand, n int, span float64) fault.Plan {
	p := fault.Plan{
		Seed:      rng.Int63(),
		DropProb:  []float64{0, 0.05, 0.3, 0.6}[rng.Intn(4)],
		DupProb:   []float64{0, 0.1, 0.5}[rng.Intn(3)],
		JitterSec: []float64{0, 2e-6, 40e-6}[rng.Intn(3)],
	}
	window := func() (float64, float64) {
		start := rng.Float64() * span
		return start, start + rng.Float64()*span/4
	}
	if rng.Intn(2) == 0 {
		start, end := window()
		p.Windows = append(p.Windows, fault.Window{From: rng.Intn(n+1) - 1, To: -1,
			Start: start, End: end, DropProb: 0.8, JitterSec: 20e-6})
	}
	for i := rng.Intn(3); i > 0; i-- {
		start, end := window()
		if rng.Intn(3) == 0 {
			end = 0 // never recovers
		}
		p.Crashes = append(p.Crashes, fault.Crash{Node: rng.Intn(n), At: start, RecoverAt: end})
	}
	for i := rng.Intn(4); i > 0; i-- {
		start, heal := window()
		if rng.Intn(3) == 0 {
			heal = start // never heals
		}
		w := fault.PartitionWindow{Start: start, HealAt: heal, OneWay: rng.Intn(2) == 0}
		if rng.Intn(3) == 0 {
			a, b := rng.Intn(n), rng.Intn(n)
			w.Legs = [][2]int{{a, b}}
		} else {
			w.GroupA = []int{rng.Intn(n), rng.Intn(n)}
		}
		p.Partitions = append(p.Partitions, w)
	}
	return p
}

// TestReliableExchangesMatchReference drives twin interconnects, one
// through SendReliable, ReliableRTT and SendQueued and one through their
// references, with the same calls under seeded random plans. Return values,
// Stats after every call, trace kinds and every queued message, duplicates
// included, must be bit-equal; the plans together must reach every branch
// of the retransmission policy and both ways an unreliable send is lost.
func TestReliableExchangesMatchReference(t *testing.T) {
	const n, span = 5, 4e-3
	var seen Stats
	kinds := map[string]int{}
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plan := randomPlan(rng, n, span)
		got, want := New(testCfg()), New(testCfg())
		gotLog, wantLog := kindLog{}, kindLog{}
		got.SetInjector(fault.NewInjector(plan))
		want.SetInjector(fault.NewInjector(plan))
		got.SetTracer(gotLog)
		want.SetTracer(wantLog)
		got.Grow(n)
		want.Grow(n)
		now := 0.0
		for op := 0; op < 120; op++ {
			now += rng.ExpFloat64() * span / 120
			from, to := rng.Intn(n), rng.Intn(n)
			size := int64(rng.Intn(8192))
			var g, w float64
			var gok, wok bool
			var call string
			switch rng.Intn(5) {
			case 0, 1:
				call = "SendReliable"
				ty := Type(rng.Intn(int(THeartbeat) + 1))
				g, gok = got.SendReliable(now, from, to, ty, size, op)
				w, wok = refSendReliable(want, now, from, to, ty, size, op)
			case 2, 3:
				call = "ReliableRTT"
				g, gok = got.ReliableRTT(now, from, to, size)
				w, wok = refReliableRTT(want, now, from, to, size)
			default:
				call = "SendQueued"
				g, gok = got.SendQueued(now, from, to, TRemoteWake, size, op)
				w, wok = refSendQueued(want, now, from, to, TRemoteWake, size, op)
			}
			where := fmt.Sprintf("seed %d op %d: %s(%.9g, %d->%d)", seed, op, call, now, from, to)
			if math.Float64bits(g) != math.Float64bits(w) || gok != wok {
				t.Fatalf("%s = %v, %v; reference %v, %v", where, g, gok, w, wok)
			}
			if gs, ws := got.Stats(), want.Stats(); gs != ws {
				t.Fatalf("%s: stats %+v; reference %+v", where, gs, ws)
			}
		}
		for node := -1; node < n; node++ {
			if fmt.Sprint(gotLog[node]) != fmt.Sprint(wantLog[node]) {
				t.Fatalf("seed %d node %d: trace kinds %v; reference %v", seed, node, gotLog[node], wantLog[node])
			}
			for _, k := range gotLog[node] {
				kinds[k]++
			}
		}
		for node := 0; node < n; node++ {
			for i := 0; ; i++ {
				g, w := got.PopDue(node, math.Inf(1)), want.PopDue(node, math.Inf(1))
				if g == nil || w == nil {
					if g != w {
						t.Fatalf("seed %d node %d: queue lengths differ at message %d", seed, node, i)
					}
					break
				}
				if *g != *w || math.Float64bits(g.Deliver) != math.Float64bits(w.Deliver) {
					t.Fatalf("seed %d node %d message %d: %+v; reference %+v", seed, node, i, *g, *w)
				}
			}
		}
		seen.add(got.Stats())
	}
	if seen.Dropped == 0 || seen.Retries == 0 || seen.Exhausted == 0 || seen.CrashStalls == 0 ||
		seen.Duplicated == 0 || seen.PartitionDrops == 0 || seen.PartitionStalls == 0 {
		t.Fatalf("the plans missed a branch: %+v", seen)
	}
	for _, k := range []string{"retx", "cut-stall", "send-fail", "rtt-fail", "drop", "cut"} {
		if kinds[k] == 0 {
			t.Fatalf("no %q event over all plans: %v", k, kinds)
		}
	}
	t.Logf("over all plans: %+v, trace kinds %v", seen, kinds)
}

// TestReliableExchangesAllocateNothing: under an injector and with no
// tracer installed, neither exchange allocates, lost rounds, stalls and
// duplicates included.
func TestReliableExchangesAllocateNothing(t *testing.T) {
	ic := New(testCfg())
	ic.SetInjector(fault.NewInjector(fault.Plan{
		Seed: 3, DropProb: 0.3, DupProb: 0.2, JitterSec: 2e-6,
		Crashes:    []fault.Crash{{Node: 2, At: 0, RecoverAt: 1e9}},
		Partitions: []fault.PartitionWindow{{GroupA: []int{0}, Start: 0, HealAt: 1e9, OneWay: true}},
	}))
	ic.Grow(3)
	payload := new(int)
	now := 0.0
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"ReliableRTT", func() {
			ic.ReliableRTT(now, 0, 1, 4096)
			ic.ReliableRTT(now, 1, 0, 4096)
			ic.ReliableRTT(now, 0, 2, 4096)
		}},
		{"SendReliable", func() {
			ic.SendReliable(now, 0, 1, TThreadMigrate, 4096, payload)
			ic.SendReliable(now, 1, 0, TThreadMigrate, 4096, payload)
			ic.SendReliable(now, 0, 2, TThreadMigrate, 4096, payload)
			for node := 0; node < 3; node++ {
				for ic.PopDue(node, math.Inf(1)) != nil {
				}
			}
		}},
	} {
		before := ic.Stats()
		allocs := testing.AllocsPerRun(200, func() { now += 1e-3; tc.run() })
		s := ic.Stats()
		if s.Retries == before.Retries || s.CrashStalls == before.CrashStalls || s.PartitionStalls == before.PartitionStalls {
			t.Fatalf("%s: the plan reached no retry, crash stall or partition stall: %+v", tc.name, s)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations per run, want 0", tc.name, allocs)
		}
	}
}

// TestLostSendsAllocateNothing: with no tracer installed, an unreliable
// send that the injector drops or a partition cuts allocates nothing, also
// once its link's sequence numbers pass 255 (an interface holds the
// integers up to 255 without a heap box).
func TestLostSendsAllocateNothing(t *testing.T) {
	ic := New(testCfg())
	ic.SetInjector(fault.NewInjector(fault.Plan{
		Seed: 1, DropProb: 1,
		Partitions: []fault.PartitionWindow{{Legs: [][2]int{{0, 1}}, Start: 0, HealAt: 1e9}},
	}))
	ic.Grow(3)
	now := 0.0
	send := func() {
		now += 1e-6
		for _, to := range []int{1, 2} {
			if _, queued := ic.SendQueued(now, 0, to, THeartbeat, 64, nil); queued {
				t.Fatalf("send 0->%d queued under a plan that loses every send", to)
			}
		}
	}
	for i := 0; i < 300; i++ {
		send()
	}
	before := ic.Stats()
	allocs := testing.AllocsPerRun(200, send)
	s := ic.Stats()
	if s.PartitionDrops == before.PartitionDrops || s.Dropped-s.PartitionDrops == before.Dropped-before.PartitionDrops {
		t.Fatalf("the plan reached no cut or no drop: %+v", s)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per pair of lost sends, want 0", allocs)
	}
}
