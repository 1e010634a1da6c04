package msg

// Partition-window enforcement at the interconnect: unreliable sends are
// severed at the cut, reliable senders wait out a known heal (or burn their
// backoff budget against a permanent cut), asymmetric cuts lose only acks,
// and everything stays deterministic.

import (
	"testing"

	"heterodc/internal/fault"
)

// partInjector builds an injector whose only chaos is the given partition
// windows.
func partInjector(ws ...fault.PartitionWindow) *fault.Injector {
	return fault.NewInjector(fault.Plan{Partitions: ws})
}

func TestSendSeveredAcrossCut(t *testing.T) {
	ic := New(testCfg())
	ic.SetInjector(partInjector(fault.PartitionWindow{GroupA: []int{0}, Start: 0, HealAt: 1.0}))
	// Cross-cut legs die in both directions; same-side traffic is untouched.
	ic.Send(0.5, 0, 1, TRemoteWake, 64, nil)
	ic.Send(0.5, 1, 0, TRemoteWake, 64, nil)
	if ic.Pending(0) != 0 || ic.Pending(1) != 0 {
		t.Fatal("cross-cut send was enqueued")
	}
	s := ic.Stats()
	if s.PartitionDrops != 2 || s.Dropped != 2 {
		t.Fatalf("stats = %+v, want 2 partition drops", s)
	}
	ic.Send(0.5, 1, 2, TRemoteWake, 64, nil) // B-side internal traffic
	if ic.Pending(2) != 1 {
		t.Fatal("same-side send was severed")
	}
	// After the heal the link carries traffic again.
	ic.Send(1.5, 0, 1, TRemoteWake, 64, nil)
	if ic.Pending(1) != 1 {
		t.Fatal("post-heal send was severed")
	}
}

func TestSendCutAtDeliveryTimeNotSendTime(t *testing.T) {
	ic := New(testCfg())
	// The window opens 0.5us after the send: the leg is in flight when the
	// cut lands (delivery at ~1.1us), so it is lost.
	ic.SetInjector(partInjector(fault.PartitionWindow{GroupA: []int{0}, Start: 0.5e-6, HealAt: 1.0}))
	ic.Send(0, 0, 1, TRemoteWake, 64, nil)
	if ic.Pending(1) != 0 {
		t.Fatal("in-flight leg survived the cut")
	}
	if ic.Stats().PartitionDrops != 1 {
		t.Fatalf("PartitionDrops = %d, want 1", ic.Stats().PartitionDrops)
	}
}

func TestSendReliableStallsToKnownHeal(t *testing.T) {
	ic := New(testCfg())
	ic.SetInjector(partInjector(fault.PartitionWindow{GroupA: []int{0}, Start: 0, HealAt: 0.5}))
	d, ok := ic.SendReliable(0.1, 0, 1, TThreadMigrate, 100, nil)
	if !ok {
		t.Fatal("reliable send failed across a healing partition")
	}
	if d < 0.5 {
		t.Fatalf("delivered at %g, want after the heal at 0.5", d)
	}
	s := ic.Stats()
	if s.PartitionStalls == 0 {
		t.Fatal("no partition stall counted")
	}
	// A known-finite cut is waited out like a crash outage: the retry budget
	// is not consumed.
	if s.Retries != 0 || s.Exhausted != 0 {
		t.Fatalf("stall consumed the retry budget: %+v", s)
	}
	if ic.Pending(1) != 1 {
		t.Fatal("healed send not enqueued")
	}
}

func TestSendReliablePermanentCutBurnsBackoff(t *testing.T) {
	ic := New(testCfg())
	// HealAt <= Start: the cut never heals. The sender cannot distinguish it
	// from loss, so it must burn its retry budget at the doubling backoff
	// cadence — not spin — before giving up.
	ic.SetInjector(partInjector(fault.PartitionWindow{GroupA: []int{0}, Start: 0, HealAt: 0}))
	start := 0.1
	giveUp, ok := ic.SendReliable(start, 0, 1, TThreadMigrate, 100, nil)
	if ok {
		t.Fatal("reliable send succeeded across a permanent cut")
	}
	s := ic.Stats()
	if s.Exhausted != 1 {
		t.Fatalf("Exhausted = %d, want 1", s.Exhausted)
	}
	if s.Retries != uint64(DefaultMaxRetries)+1 {
		t.Fatalf("Retries = %d, want %d", s.Retries, DefaultMaxRetries+1)
	}
	if s.PartitionDrops != s.Retries {
		t.Fatalf("PartitionDrops = %d, want %d (every retry severed)", s.PartitionDrops, s.Retries)
	}
	// Doubling backoff: the give-up point must sit far past DefaultMaxRetries
	// fixed-timeout spins (8 * 25us = 200us; the capped-doubling schedule
	// reaches ~3.2ms).
	if burned := giveUp - start; burned < 10*float64(DefaultMaxRetries)*DefaultRetxTimeout {
		t.Fatalf("gave up after %gs, want a backed-off schedule >> %gs",
			burned, float64(DefaultMaxRetries)*DefaultRetxTimeout)
	}
	if ic.Pending(1) != 0 {
		t.Fatal("failed reliable send left a queued message")
	}
}

func TestSendReliableInFlightCutRetriesThenStalls(t *testing.T) {
	ic := New(testCfg())
	// The window opens while the first leg is in flight: that leg is lost
	// (burning a retry), and once the sender's clock enters the window the
	// pre-attempt check stalls it to the heal.
	ic.SetInjector(partInjector(fault.PartitionWindow{GroupA: []int{0}, Start: 0.1 + 0.5e-6, HealAt: 0.2}))
	d, ok := ic.SendReliable(0.1, 0, 1, TThreadMigrate, 100, nil)
	if !ok {
		t.Fatal("reliable send failed across a healing partition")
	}
	if d < 0.2 {
		t.Fatalf("delivered at %g, want after the heal at 0.2", d)
	}
	s := ic.Stats()
	if s.Retries == 0 || s.PartitionDrops == 0 {
		t.Fatalf("in-flight cut burned no retry: %+v", s)
	}
	if s.PartitionStalls == 0 {
		t.Fatalf("sender inside the window did not stall to the heal: %+v", s)
	}
}

func TestOneWayCutLosesAcksAndDuplicates(t *testing.T) {
	ic := New(testCfg())
	// Asymmetric cut: only 1->0 legs are severed. A reliable 0->1 send gets
	// through, but its acknowledgement is lost, so the sender retransmits a
	// copy the receiver must tolerate.
	ic.SetInjector(partInjector(fault.PartitionWindow{GroupA: []int{1}, Start: 0, HealAt: 1.0, OneWay: true}))
	_, ok := ic.SendReliable(0.5, 0, 1, TThreadMigrate, 100, nil)
	if !ok {
		t.Fatal("forward leg failed under a reverse-only cut")
	}
	if ic.Pending(1) != 2 {
		t.Fatalf("pending %d, want 2 (original + lost-ack duplicate)", ic.Pending(1))
	}
	if ic.Stats().Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", ic.Stats().Duplicated)
	}
	// The severed direction still drops unreliable traffic...
	ic.Send(0.5, 1, 0, TRemoteWake, 64, nil)
	if ic.Pending(0) != 0 {
		t.Fatal("A->B leg of a one-way cut delivered")
	}
	// ...while the surviving direction delivers without duplication.
	before := ic.Pending(1)
	ic.Send(0.6, 0, 1, TRemoteWake, 64, nil)
	if ic.Pending(1) != before+1 {
		t.Fatal("B->A direction did not deliver cleanly")
	}
}

func TestReliableRTTStallsAcrossPartition(t *testing.T) {
	ic := New(testCfg())
	ic.SetInjector(partInjector(fault.PartitionWindow{GroupA: []int{0}, Start: 0, HealAt: 0.5}))
	lat, ok := ic.ReliableRTT(0.1, 0, 1, 4096)
	if !ok {
		t.Fatal("exchange failed despite a scheduled heal")
	}
	if lat < 0.4 {
		t.Fatalf("latency %g, want >= 0.4 (stalled until the heal at 0.5)", lat)
	}
	if ic.Stats().PartitionStalls == 0 {
		t.Fatal("no partition stall counted")
	}
	// Against a permanent cut the exchange fails after burning its budget.
	ic2 := New(testCfg())
	ic2.SetInjector(partInjector(fault.PartitionWindow{GroupA: []int{0}, Start: 0, HealAt: 0}))
	if _, ok := ic2.ReliableRTT(0.1, 0, 1, 4096); ok {
		t.Fatal("exchange succeeded across a permanent cut")
	}
	if s := ic2.Stats(); s.Exhausted != 1 || s.Retries == 0 {
		t.Fatalf("stats = %+v, want exhausted after burned retries", s)
	}
}

func TestSweepScopedUnderPartition(t *testing.T) {
	ic := New(testCfg())
	// Messages enqueued before the window opened are already past the cut
	// check; a partition does not retroactively reach into queues. Sweeping
	// the reaped process's messages works the same mid-partition.
	ic.Send(0, 0, 1, TThreadMigrate, 100, "dead")
	ic.Send(0, 0, 1, TRemoteWake, 64, "live")
	ic.Send(0, 2, 3, TThreadMigrate, 100, "dead")
	ic.SetInjector(partInjector(fault.PartitionWindow{GroupA: []int{0, 1}, Start: 1e-6, HealAt: 1.0}))
	// Scoped to the partition's A side: only node 1's queue is touched.
	n := ic.Sweep([]int{0, 1}, func(m *Message) bool { return m.Payload == "dead" })
	if n != 1 {
		t.Fatalf("swept %d, want 1 (scope excludes node 3)", n)
	}
	if ic.Pending(1) != 1 || ic.Pending(3) != 1 {
		t.Fatalf("pending after sweep: node1=%d node3=%d", ic.Pending(1), ic.Pending(3))
	}
	if m := ic.PopDue(1, 1.0); m == nil || m.Payload != "live" {
		t.Fatal("surviving message lost or reordered by scoped sweep")
	}
}

func TestPartitionDeterministic(t *testing.T) {
	run := func() (Stats, float64) {
		ic := New(testCfg())
		ic.SetInjector(fault.NewInjector(fault.Plan{
			Seed:     13,
			DropProb: 0.1,
			Partitions: []fault.PartitionWindow{
				{GroupA: []int{0, 1}, Start: 5e-3, HealAt: 12e-3},
				{GroupA: []int{0}, Start: 20e-3, HealAt: 25e-3, OneWay: true},
			},
		}))
		total := 0.0
		for i := 0; i < 200; i++ {
			at := float64(i) * 1.5e-4
			from, to := i%4, (i+1+i%3)%4
			if from == to {
				continue
			}
			if d, ok := ic.SendReliable(at, from, to, TThreadMigrate, 100, i); ok {
				total += d
			}
		}
		return ic.Stats(), total
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Fatalf("two identical partitioned runs diverged: %+v/%g vs %+v/%g", s1, t1, s2, t2)
	}
	if s1.PartitionDrops == 0 && s1.PartitionStalls == 0 {
		t.Fatalf("partition windows never engaged: %+v", s1)
	}
}
