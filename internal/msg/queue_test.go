package msg

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the delivery queue as container/heap keeps it, over the same
// order: the reference the typed queue must match move for move.
type refHeap []Message

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return before(&h[i], &h[j]) }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(Message)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	m := old[len(old)-1]
	*h = old[:len(old)-1]
	return m
}

// TestQueueMatchesContainerHeap runs random pushes, PopDue, Sweep and
// Drain+Requeue against one node's queue and a container/heap reference,
// with delivery times drawn from a handful of values so most pops break a
// tie by arrival. Both must pop the same sequence and, since
// ForEachPending exposes it, keep the same layout.
func TestQueueMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ic := New(testCfg())
		var ref refHeap
		arrivals := uint64(0)
		id := 0
		push := func(deliver float64) {
			id++
			ic.Requeue(&Message{From: 0, To: 1, Payload: id}, deliver)
			arrivals++
			heap.Push(&ref, Message{From: 0, To: 1, Payload: id, Deliver: deliver, arrival: arrivals})
		}
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(100); {
			case r < 50:
				push(float64(rng.Intn(4)))
			case r < 85:
				now := float64(rng.Intn(4))
				m := ic.PopDue(1, now)
				var want *Message
				if len(ref) > 0 && ref[0].Deliver <= now {
					w := heap.Pop(&ref).(Message)
					want = &w
				}
				if (m == nil) != (want == nil) || m != nil && (m.Payload != want.Payload || m.Deliver != want.Deliver) {
					t.Fatalf("seed %d op %d: PopDue(%g) = %+v, reference %+v", seed, op, now, m, want)
				}
			case r < 93:
				k := rng.Intn(5) + 2
				drop := func(m *Message) bool { return m.Payload.(int)%k == 0 }
				got := ic.Sweep([]int{1}, drop)
				kept := ref[:0]
				for _, m := range ref {
					if !drop(&m) {
						kept = append(kept, m)
					}
				}
				want := len(ref) - len(kept)
				ref = kept
				heap.Init(&ref)
				if got != want {
					t.Fatalf("seed %d op %d: Sweep reclaimed %d, reference %d", seed, op, got, want)
				}
			default:
				ms := ic.Drain(1)
				var drained []Message
				for len(ref) > 0 {
					drained = append(drained, heap.Pop(&ref).(Message))
				}
				if len(ms) != len(drained) {
					t.Fatalf("seed %d op %d: drained %d, reference %d", seed, op, len(ms), len(drained))
				}
				for i, m := range ms {
					if m.Payload != drained[i].Payload {
						t.Fatalf("seed %d op %d: drain position %d is %v, reference %v", seed, op, i, m.Payload, drained[i].Payload)
					}
					if rng.Intn(2) == 0 {
						d := float64(rng.Intn(4))
						ic.Requeue(m, d)
						arrivals++
						heap.Push(&ref, Message{From: 0, To: 1, Payload: m.Payload, Deliver: d, arrival: arrivals})
					}
				}
			}
			i := 0
			ic.ForEachPending(func(m *Message) {
				if i >= len(ref) || m.Payload != ref[i].Payload {
					t.Fatalf("seed %d op %d: queue layout differs from the reference at %d", seed, op, i)
				}
				i++
			})
			if i != len(ref) {
				t.Fatalf("seed %d op %d: %d queued, reference %d", seed, op, i, len(ref))
			}
		}
	}
}

// copied is a payload the receiver reuses: a duplicate leg must carry a
// copy of its own.
type copied struct{ n int }

func (c *copied) Duplicate() interface{} { cp := *c; return &cp }

// alwaysDup duplicates every leg and never drops one.
type alwaysDup struct{}

func (alwaysDup) Fate(now float64, from, to int, seq uint64) (bool, bool, float64) {
	return false, true, 0
}
func (alwaysDup) NodeDown(node int, at float64) bool                 { return false }
func (alwaysDup) NodeRecoverAt(node int, at float64) (float64, bool) { return 0, false }

// TestDuplicateLegsCarryPrivateCopies covers both duplicate paths — a
// duplication fault on Send, and the copy SendReliable retransmits — for a
// payload that implements Duplicator and one that does not.
func TestDuplicateLegsCarryPrivateCopies(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		ic := New(testCfg())
		ic.SetInjector(alwaysDup{})
		p, shared := &copied{n: 7}, "shared"
		for _, pl := range []interface{}{p, shared} {
			if reliable {
				if _, ok := ic.SendReliable(0, 0, 1, TFSOp, 10, pl); !ok {
					t.Fatal("reliable send failed on a lossless fabric")
				}
			} else if _, queued := ic.SendQueued(0, 0, 1, TFSOp, 10, pl); !queued {
				t.Fatal("send not queued on a lossless fabric")
			}
		}
		var got []interface{}
		for m := ic.PopDue(1, 1); m != nil; m = ic.PopDue(1, 1) {
			got = append(got, m.Payload)
		}
		copies, originals, strings := 0, 0, 0
		for _, pl := range got {
			switch v := pl.(type) {
			case *copied:
				if v.n != 7 {
					t.Fatalf("reliable=%v: a leg carried %+v", reliable, v)
				}
				if v == p {
					originals++
				} else {
					copies++
				}
			case string:
				strings++
			}
		}
		if originals != 1 || copies != 1 || strings != 2 {
			t.Fatalf("reliable=%v: %d originals, %d copies, %d shared legs; want 1, 1, 2", reliable, originals, copies, strings)
		}
	}
}
