package msg

import (
	"testing"

	"heterodc/internal/fault"
)

// alwaysDrop drops every message leg.
type alwaysDrop struct{}

func (alwaysDrop) Fate(now float64, from, to int, seq uint64) (bool, bool, float64) {
	return true, false, 0
}
func (alwaysDrop) NodeDown(node int, at float64) bool                   { return false }
func (alwaysDrop) NodeRecoverAt(node int, at float64) (float64, bool)   { return 0, false }
func (alwaysDrop) LinkCut(at float64, from, to int) bool                { return false }
func (alwaysDrop) LinkClearAt(at float64, from, to int) (float64, bool) { return at, true }

func TestSendDropsWithInjector(t *testing.T) {
	ic := New(testCfg())
	ic.SetInjector(alwaysDrop{})
	ic.Send(0, 0, 1, TPageReply, 100, nil)
	if ic.Pending(1) != 0 {
		t.Fatal("dropped message was enqueued")
	}
	if s := ic.Stats(); s.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", s.Dropped)
	}
}

func TestSendReliableExhaustsRetries(t *testing.T) {
	ic := New(testCfg())
	ic.SetInjector(alwaysDrop{})
	_, ok := ic.SendReliable(0, 0, 1, TThreadMigrate, 100, nil)
	if ok {
		t.Fatal("send succeeded under a 100% loss injector")
	}
	s := ic.Stats()
	if s.Exhausted != 1 {
		t.Fatalf("Exhausted = %d, want 1", s.Exhausted)
	}
	if s.Retries != uint64(DefaultMaxRetries)+1 {
		t.Fatalf("Retries = %d, want %d", s.Retries, DefaultMaxRetries+1)
	}
	if ic.Pending(1) != 0 {
		t.Fatal("failed reliable send left a queued message")
	}
}

func TestSendReliableSurvivesLoss(t *testing.T) {
	ic := New(testCfg())
	ic.SetInjector(fault.NewInjector(fault.Plan{Seed: 11, DropProb: 0.5}))
	delivered := 0
	for i := 0; i < 50; i++ {
		if _, ok := ic.SendReliable(float64(i)*1e-3, 0, 1, TThreadMigrate, 100, i); ok {
			delivered++
		}
	}
	if delivered != 50 {
		t.Fatalf("delivered %d/50 under 50%% loss; reliable channel should retry through", delivered)
	}
	if s := ic.Stats(); s.Retries == 0 {
		t.Fatal("no retries counted under 50% loss")
	}
}

func TestSendReliableRetryCostsTime(t *testing.T) {
	cfg := testCfg()
	ic := New(cfg)
	base := ic.Send(0, 0, 1, TPageReply, 100, nil) // healthy reference

	lossy := New(cfg)
	// Seed chosen arbitrarily; with p=0.9 the first attempt almost surely
	// drops, so delivery must land at least one retransmission timeout out.
	lossy.SetInjector(fault.NewInjector(fault.Plan{Seed: 1, DropProb: 0.9}))
	d, ok := lossy.SendReliable(0, 0, 1, TPageReply, 100, nil)
	if !ok {
		t.Skip("all retries dropped for this seed")
	}
	if lossy.Stats().Retries > 0 && d < base+DefaultRetxTimeout {
		t.Fatalf("retried delivery at %g, want >= %g (base %g + timeout)", d, base+DefaultRetxTimeout, base)
	}
}

func TestReliableRTTDeterministic(t *testing.T) {
	run := func() (Stats, float64) {
		ic := New(testCfg())
		ic.SetInjector(fault.NewInjector(fault.Plan{Seed: 9, DropProb: 0.3, JitterSec: 2e-6}))
		total := 0.0
		failed := 0
		for i := 0; i < 200; i++ {
			lat, ok := ic.ReliableRTT(float64(i)*1e-4, 0, 1, 4096)
			if !ok {
				// Exhausting the retry budget is legitimately possible
				// (~0.2% per exchange at this loss rate); it just must be
				// identical across runs.
				failed++
			}
			total += lat
		}
		if failed > 10 {
			t.Fatalf("%d/200 exchanges exhausted retries under 30%% loss", failed)
		}
		return ic.Stats(), total
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Fatalf("two identical runs diverged: %+v/%g vs %+v/%g", s1, t1, s2, t2)
	}
	if s1.Retries == 0 || s1.Dropped == 0 {
		t.Fatalf("expected loss activity, got %+v", s1)
	}
}

func TestReliableRTTWaitsOutOutage(t *testing.T) {
	ic := New(testCfg())
	ic.SetInjector(fault.NewInjector(fault.Plan{
		Crashes: []fault.Crash{{Node: 1, At: 0, RecoverAt: 0.5}},
	}))
	lat, ok := ic.ReliableRTT(0.1, 0, 1, 4096)
	if !ok {
		t.Fatal("exchange failed despite a scheduled recovery")
	}
	if lat < 0.4 {
		t.Fatalf("latency %g, want >= 0.4 (stalled until the node recovers at 0.5)", lat)
	}
	if ic.Stats().CrashStalls == 0 {
		t.Fatal("no crash stall counted")
	}
}

func TestReliableRTTFailsOnPermanentOutage(t *testing.T) {
	ic := New(testCfg())
	ic.SetInjector(fault.NewInjector(fault.Plan{
		Crashes: []fault.Crash{{Node: 1, At: 0, RecoverAt: 0}},
	}))
	if _, ok := ic.ReliableRTT(0.1, 0, 1, 4096); ok {
		t.Fatal("exchange succeeded against a permanently dead node")
	}
	if ic.Stats().Exhausted != 1 {
		t.Fatalf("Exhausted = %d, want 1", ic.Stats().Exhausted)
	}
}

func TestDuplicateDeliveryOnDupFault(t *testing.T) {
	ic := New(testCfg())
	ic.SetInjector(fault.NewInjector(fault.Plan{Seed: 4, DupProb: 1.0}))
	ic.Send(0, 0, 1, TRemoteWake, 64, "x")
	if ic.Pending(1) != 2 {
		t.Fatalf("pending %d, want 2 (original + duplicate)", ic.Pending(1))
	}
	if ic.Stats().Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", ic.Stats().Duplicated)
	}
}

func TestDrainAndRequeue(t *testing.T) {
	ic := New(testCfg())
	ic.Send(0, 0, 1, TPageReply, 100, "a")
	ic.Send(0, 0, 1, TPageReply, 100, "b")
	ms := ic.Drain(1)
	if len(ms) != 2 || ic.Pending(1) != 0 {
		t.Fatalf("drained %d, pending %d", len(ms), ic.Pending(1))
	}
	if ms[0].Payload.(string) != "a" {
		t.Fatal("drain not in delivery order")
	}
	ic.Requeue(ms[0], 5.0)
	if d, ok := ic.NextDeliver(1); !ok || d != 5.0 {
		t.Fatalf("requeued deliver %g %v, want 5.0", d, ok)
	}
}

func TestSweepReclaimsMatching(t *testing.T) {
	ic := New(testCfg())
	ic.Send(0, 0, 1, TThreadMigrate, 100, "dead")
	ic.Send(0, 0, 1, TRemoteWake, 64, "live")
	ic.Send(0, 1, 0, TThreadMigrate, 100, "dead")
	n := ic.Sweep(nil, func(m *Message) bool { return m.Payload == "dead" })
	if n != 2 {
		t.Fatalf("swept %d, want 2", n)
	}
	if ic.Pending(1) != 1 || ic.Pending(0) != 0 {
		t.Fatalf("pending after sweep: node1=%d node0=%d", ic.Pending(1), ic.Pending(0))
	}
	if m := ic.PopDue(1, 1.0); m == nil || m.Payload != "live" {
		t.Fatal("surviving message lost or reordered by sweep")
	}
}

func TestSendToDownNodeIsLost(t *testing.T) {
	ic := New(testCfg())
	ic.SetInjector(fault.NewInjector(fault.Plan{
		Crashes: []fault.Crash{{Node: 1, At: 0, RecoverAt: 1.0}},
	}))
	ic.Send(0.5, 0, 1, TRemoteWake, 64, nil)
	if ic.Pending(1) != 0 {
		t.Fatal("unreliable send to a down node was enqueued")
	}
	if ic.Stats().Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", ic.Stats().Dropped)
	}
}

func TestSendReliableWaitsOutOutage(t *testing.T) {
	ic := New(testCfg())
	ic.SetInjector(fault.NewInjector(fault.Plan{
		Crashes: []fault.Crash{{Node: 1, At: 0, RecoverAt: 1.0}},
	}))
	d, ok := ic.SendReliable(0.5, 0, 1, TThreadMigrate, 100, nil)
	if !ok {
		t.Fatal("reliable send failed despite scheduled recovery")
	}
	if d < 1.0 {
		t.Fatalf("delivered at %g, want after recovery at 1.0", d)
	}
}

// TestReliableSendLeavesInFlightCrashToTheDrain: a reliable send whose
// destination is up at the attempt and crashes before the message lands is
// queued and succeeds. The reliable loop judges the outage only at the
// attempt instant; a crash in flight is the crashed kernel's queue drain's
// to rehome or requeue, so no leg may be lost to the destination's outage.
func TestReliableSendLeavesInFlightCrashToTheDrain(t *testing.T) {
	const at, crash = 0.5, 0.5 + 1e-6 // the fault-free delivery is at + 1.1 µs
	inj := fault.NewInjector(fault.Plan{
		Seed: 1, JitterSec: 2e-6,
		Crashes: []fault.Crash{{Node: 1, At: crash}}, // never recovers
	})
	ic := New(testCfg())
	ic.SetInjector(inj)
	d, ok := ic.SendReliable(at, 0, 1, TThreadMigrate, 100, nil)
	if !ok {
		t.Fatal("send failed although its destination was up at the attempt")
	}
	if !inj.NodeDown(1, d) || inj.NodeDown(1, at) {
		t.Fatalf("delivery at %v: the destination must be up at the attempt and down at delivery", d)
	}
	if ic.Pending(1) != 1 {
		t.Fatalf("%d messages queued for the crashed destination, want 1 for its drain", ic.Pending(1))
	}
	if s := ic.Stats(); s.Dropped != 0 || s.Retries != 0 || s.Exhausted != 0 {
		t.Fatalf("stats %+v: the crash in flight cost the send a leg", s)
	}
}
