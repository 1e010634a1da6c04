package dsm

import (
	"testing"
	"testing/quick"
)

func TestColdFaultGrantsExclusive(t *testing.T) {
	s := NewSpace(2)
	act, err := s.Fault(0, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	if !act.Cold || act.Grant != Exclusive || act.TransferFrom != -1 {
		t.Fatalf("cold fault action %+v", act)
	}
	if s.StateOf(0, 100) != Exclusive || s.Owner(100) != 0 {
		t.Fatal("directory not updated")
	}
}

func TestReadShareDowngradesOwner(t *testing.T) {
	s := NewSpace(2)
	mustFault(t, s, 0, 100, true) // cold, exclusive at 0
	act, err := s.Fault(1, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	if act.TransferFrom != 0 || act.Grant != Shared {
		t.Fatalf("read fault action %+v", act)
	}
	if len(act.Protect) != 1 || act.Protect[0] != 0 {
		t.Fatalf("owner not downgraded: %+v", act)
	}
	if s.StateOf(0, 100) != Shared || s.StateOf(1, 100) != Shared {
		t.Fatal("states after share")
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	s := NewSpace(2)
	mustFault(t, s, 0, 100, true)
	mustFault(t, s, 1, 100, false) // both shared
	act, err := s.Fault(1, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 upgrades in place; node 0's copy drops.
	if act.TransferFrom != -1 || act.Grant != Exclusive {
		t.Fatalf("upgrade action %+v", act)
	}
	if len(act.Drop) != 1 || act.Drop[0] != 0 {
		t.Fatalf("sharer not dropped: %+v", act)
	}
	if s.StateOf(0, 100) != Invalid || s.StateOf(1, 100) != Exclusive || s.Owner(100) != 1 {
		t.Fatal("directory after upgrade")
	}
}

func TestWriteTransferFromRemoteOwner(t *testing.T) {
	s := NewSpace(2)
	mustFault(t, s, 0, 100, true)
	act, err := s.Fault(1, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if act.TransferFrom != 0 || act.Grant != Exclusive {
		t.Fatalf("write-transfer action %+v", act)
	}
	if len(act.Drop) != 1 || act.Drop[0] != 0 {
		t.Fatalf("old owner kept a copy: %+v", act)
	}
}

func TestBogusFaultsRejected(t *testing.T) {
	s := NewSpace(2)
	mustFault(t, s, 0, 100, true)
	// Read fault while already present is a kernel bug.
	if _, err := s.Fault(0, 100, false); err == nil {
		t.Error("read fault on present page accepted")
	}
	if _, err := s.Fault(0, 100, true); err == nil {
		t.Error("write fault on exclusive page accepted")
	}
}

func TestSeed(t *testing.T) {
	s := NewSpace(2)
	s.Seed(1, 55)
	if s.Owner(55) != 1 || s.StateOf(1, 55) != Exclusive {
		t.Fatal("seed did not set ownership")
	}
	st := s.Stats(1)
	if st.ColdFaults != 0 {
		t.Fatal("seed counted as a fault")
	}
}

func TestStats(t *testing.T) {
	s := NewSpace(2)
	mustFault(t, s, 0, 1, true)
	mustFault(t, s, 1, 1, false)
	mustFault(t, s, 1, 1, true)
	s0, s1 := s.Stats(0), s.Stats(1)
	if s0.ColdFaults != 1 || s0.WriteFaults != 1 {
		t.Errorf("node0 stats %+v", s0)
	}
	if s1.ReadFaults != 1 || s1.WriteFaults != 1 || s1.PageIn != 1 || s1.Upgrades != 1 {
		t.Errorf("node1 stats %+v", s1)
	}
	if s0.Invalidates != 1 {
		t.Errorf("node0 invalidates %d", s0.Invalidates)
	}
}

func TestResidentPages(t *testing.T) {
	s := NewSpace(2)
	mustFault(t, s, 0, 1, true)
	mustFault(t, s, 0, 2, true)
	mustFault(t, s, 1, 1, false)
	sh, ex := s.ResidentPages(0)
	if sh != 1 || ex != 1 {
		t.Fatalf("node0 resident %d/%d", sh, ex)
	}
}

func TestForceOwn(t *testing.T) {
	s := NewSpace(2)
	mustFault(t, s, 0, 7, true)
	prev, moved := s.ForceOwn(1, 7)
	if prev != 0 || !moved {
		t.Fatalf("ForceOwn: %d %v", prev, moved)
	}
	if s.Owner(7) != 1 || s.StateOf(0, 7) != Invalid {
		t.Fatal("ownership not transferred")
	}
	if _, moved := s.ForceOwn(1, 7); moved {
		t.Fatal("self-transfer reported as move")
	}
	if _, moved := s.ForceOwn(1, 999); moved {
		t.Fatal("untouched page reported as move")
	}
}

func TestOwnedPages(t *testing.T) {
	s := NewSpace(2)
	mustFault(t, s, 0, 1, true)
	mustFault(t, s, 1, 2, true)
	got := s.OwnedPages()
	if len(got) != 2 {
		t.Fatalf("owned pages %v", got)
	}
}

// Property: single-writer invariant — after any sequence of legal faults,
// at most one node holds Exclusive, and if anyone does, nobody else holds
// any copy of that page.
func TestPropertySingleWriter(t *testing.T) {
	err := quick.Check(func(ops []uint8) bool {
		s := NewSpace(2)
		for _, op := range ops {
			node := int(op) & 1
			page := uint64((op >> 1) & 3)
			write := op&8 != 0
			// Only issue legal faults (as the kernel would: it faults only
			// on access violations).
			st := s.StateOf(node, page)
			if st == Exclusive || (st == Shared && !write) {
				continue
			}
			if _, err := s.Fault(node, page, write); err != nil {
				return false
			}
			// Check the invariant.
			for pg := uint64(0); pg < 4; pg++ {
				excl := 0
				copies := 0
				for n := 0; n < 2; n++ {
					switch s.StateOf(n, pg) {
					case Exclusive:
						excl++
						copies++
					case Shared:
						copies++
					}
				}
				if excl > 1 || (excl == 1 && copies != 1) {
					return false
				}
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func mustFault(t *testing.T, s *Space, node int, page uint64, write bool) Action {
	t.Helper()
	act, err := s.Fault(node, page, write)
	if err != nil {
		t.Fatalf("fault(%d,%d,%v): %v", node, page, write, err)
	}
	return act
}

func TestSweepNodeDropsCopiesAndReassignsOwner(t *testing.T) {
	s := NewSpace(3)
	// Page 10: shared by all three (owner 1 after 1's cold fault + reads).
	mustFault(t, s, 1, 10, true)
	mustFault(t, s, 0, 10, false)
	mustFault(t, s, 2, 10, false)
	// Page 20: exclusive at node 1 only — its content dies with it.
	mustFault(t, s, 1, 20, true)
	// Page 30: exclusive at node 2, untouched by node 1.
	mustFault(t, s, 2, 30, true)

	dropped, lost := s.SweepNode(1)
	if len(dropped) != 2 || dropped[0] != 10 || dropped[1] != 20 {
		t.Fatalf("dropped = %v, want [10 20] in ascending order", dropped)
	}
	if len(lost) != 1 || lost[0] != 20 {
		t.Fatalf("lost = %v, want [20]", lost)
	}
	if s.StateOf(1, 10) != Invalid || s.StateOf(1, 20) != Invalid {
		t.Error("dead node still holds copies after the sweep")
	}
	// Page 10's ownership moved to the lowest surviving holder.
	if s.Owner(10) != 0 {
		t.Errorf("page 10 owner = %d, want 0", s.Owner(10))
	}
	// Page 20 had no surviving copy: no owner at all.
	if s.Owner(20) != -1 {
		t.Errorf("page 20 owner = %d, want -1", s.Owner(20))
	}
	// Page 30 was never node 1's: untouched.
	if s.Owner(30) != 2 || s.StateOf(2, 30) != Exclusive {
		t.Error("sweep disturbed a page the dead node never held")
	}
	if s.Stats(1).Invalidates != 2 {
		t.Errorf("Invalidates at swept node = %d, want 2", s.Stats(1).Invalidates)
	}
	if s.HasResident(1) {
		t.Error("swept node still reports resident pages")
	}

	// Survivors keep working: a read of page 10 transfers from the new owner,
	// and the lost page refills cold.
	act, err := s.Fault(1, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if act.TransferFrom != 0 {
		t.Errorf("post-sweep read transfers from %d, want reassigned owner 0", act.TransferFrom)
	}
	act, err = s.Fault(0, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	if !act.Cold || act.Grant != Exclusive {
		t.Errorf("touch of lost page not a cold zero-fill: %+v", act)
	}
}

func TestSweepNodeIdempotentAndEmpty(t *testing.T) {
	s := NewSpace(2)
	if d, l := s.SweepNode(1); d != nil || l != nil {
		t.Fatalf("sweep of empty directory returned %v %v", d, l)
	}
	mustFault(t, s, 1, 5, true)
	s.SweepNode(1)
	if d, l := s.SweepNode(1); d != nil || l != nil {
		t.Fatalf("second sweep not a no-op: %v %v", d, l)
	}
}

// OwnedCount is kept on every transition that gives a page an owner or
// takes its last one away, so it always equals len(OwnedPages()).
func TestOwnedCountTracksOwnedPages(t *testing.T) {
	s := NewSpace(3)
	check := func(when string) {
		t.Helper()
		if got, want := s.OwnedCount(), len(s.OwnedPages()); got != want {
			t.Fatalf("%s: OwnedCount %d, OwnedPages has %d", when, got, want)
		}
	}
	s.Seed(0, 1)
	check("seed")
	mustFault(t, s, 1, 2, true)
	mustFault(t, s, 2, 2, false)
	mustFault(t, s, 0, 2, true)
	check("faults")
	s.ForceOwn(2, 1)
	check("force own")
	s.SweepNode(2) // page 1 lived only there: lost, no owner
	check("sweep")
	if s.OwnedCount() != 1 {
		t.Fatalf("owned after sweep: %d, want 1", s.OwnedCount())
	}
	mustFault(t, s, 1, 1, false) // cold again
	check("refault")
}

// An Action's lists are the Space's scratch: the next Fault may overwrite
// them, and a Fault that drops nobody reports a nil list.
func TestActionListsAliasScratch(t *testing.T) {
	s := NewSpace(3)
	mustFault(t, s, 0, 1, true)
	mustFault(t, s, 1, 1, false)
	first := mustFault(t, s, 2, 1, true) // drops 0 and 1
	if len(first.Drop) != 2 || first.Drop[0] != 0 || first.Drop[1] != 1 {
		t.Fatalf("drop list %v, want [0 1]", first.Drop)
	}
	second := mustFault(t, s, 0, 1, true) // drops 2
	if len(second.Drop) != 1 || second.Drop[0] != 2 || first.Drop[0] != 2 {
		t.Fatalf("second drop list %v (first now %v): want [2], sharing the scratch", second.Drop, first.Drop)
	}
	if act := mustFault(t, s, 0, 7, true); act.Drop != nil || act.Protect != nil {
		t.Fatalf("cold fault lists %v %v, want nil", act.Drop, act.Protect)
	}
}

// pingPongFaults alternates write faults on 64 pages between two nodes —
// the bench's dsm.fault_ns probe — after one warm-up round.
func pingPongFaults(tb testing.TB) func() {
	s := NewSpace(2)
	node := 0
	round := func() {
		for p := uint64(0); p < 64; p++ {
			if _, err := s.Fault(node, p, true); err != nil {
				tb.Fatal(err)
			}
		}
		node = 1 - node
	}
	round()
	round()
	return round
}

func TestFaultDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(50, pingPongFaults(t)); n != 0 {
		t.Fatalf("%v allocs per 64 faults on known pages, want 0", n)
	}
}

func BenchmarkFault(b *testing.B) {
	round := pingPongFaults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		round()
	}
}
