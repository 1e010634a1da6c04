package mem

import "testing"

// A dropped frame comes back from EnsurePage — the same frame, zeroed — and
// the free list stops growing at its cap.
func TestDroppedFrameIsRecycledZeroed(t *testing.T) {
	m := NewMemory()
	p := m.EnsurePage(0x1000)
	p[0], p[PageSize-1] = 7, 9
	m.DropPage(0x1000)
	q := m.EnsurePage(0x8000)
	if q != p {
		t.Fatal("EnsurePage allocated with a frame parked on the free list")
	}
	if *q != (Page{}) {
		t.Fatal("recycled frame kept its old content")
	}

	for i := uint64(0); i < 3*maxFreeFrames; i++ {
		m.EnsurePage(i << PageShift)
	}
	for i := uint64(0); i < 3*maxFreeFrames; i++ {
		m.DropPage(i << PageShift)
	}
	if len(m.free) != maxFreeFrames {
		t.Fatalf("free list holds %d frames, cap %d", len(m.free), maxFreeFrames)
	}
	if err := AuditFrames([]*Memory{m}); err != nil {
		t.Fatal(err)
	}
}

// TakePage/AdoptPage move the frame itself; a TLB filled before the move
// misses after it, and a frame already present at the gainer keeps its
// pointer and takes the content.
func TestFrameMovesBetweenMemories(t *testing.T) {
	src, dst := NewMemory(), NewMemory()
	p := src.EnsurePage(0x5000)
	p[3] = 42
	src.Protect(0x5000)
	tlb := tlbOn(src)
	if _, ok := tlb.ReadU8(0x5003); !ok {
		t.Fatal("page not readable before the move")
	}

	frame := src.TakePage(0x5000)
	if frame != p || src.Present(0x5000) {
		t.Fatal("TakePage did not detach the frame")
	}
	dst.AdoptPage(0x5000, frame)
	if dst.Page(0x5000) != p || !dst.Writable(0x5000) {
		t.Fatal("AdoptPage did not map the frame writable")
	}
	tlb.Attach(src)
	if _, ok := tlb.ReadU8(0x5003); ok {
		t.Fatal("TLB still serves a page whose frame moved away")
	}
	if src.TakePage(0x5000) != nil {
		t.Fatal("TakePage of an absent page returned a frame")
	}

	// Move it back onto a memory that already maps the page.
	old := src.EnsurePage(0x5000)
	src.AdoptPage(0x5000, dst.TakePage(0x5000))
	if src.Page(0x5000) != old || old[3] != 42 {
		t.Fatal("AdoptPage over a present page must keep its frame and take the content")
	}
	if err := AuditFrames([]*Memory{src, dst}); err != nil {
		t.Fatal(err)
	}
	// The spare frame was parked, not leaked to a second owner.
	if len(src.free) != 1 || src.free[0] != p {
		t.Fatalf("spare frame not recycled at the gainer: free list %v", src.free)
	}

	src.InstallPage(0x9000, nil)
	if pg := src.Page(0x9000); pg != p || *pg != (Page{}) {
		t.Fatal("InstallPage(nil) must make the page present and zero")
	}
}

func TestAuditFramesReportsSharedFrame(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	p := a.EnsurePage(0x1000)
	b.AdoptPage(0x2000, p) // a frame a still maps: the bug the audit exists for
	if err := AuditFrames([]*Memory{a, b}); err == nil {
		t.Fatal("a frame mapped by two memories passed the audit")
	}
}

// The fault-free accessors report which page of a straddling access faulted
// and cost nothing when they fail.
func TestLoadStoreFaultsWithoutAllocating(t *testing.T) {
	m := NewMemory()
	m.EnsurePage(0x1000)
	m.EnsurePage(0x3000)
	m.Protect(0x3000)
	straddle := uint64(0x1ffc) // 0x1000 is present, 0x2000 is not
	if _, ok := m.LoadU64(straddle); ok {
		t.Fatal("straddling load into an absent page succeeded")
	}
	if got := m.FaultAddr(straddle, 8, false); got != 0x2000 {
		t.Fatalf("fault address %#x, want 0x2000", got)
	}
	if got := m.FaultAddr(0x3008, 8, true); got != 0x3008 {
		t.Fatalf("fault address %#x, want 0x3008", got)
	}
	_, err := m.ReadU64(straddle)
	if fe, ok := err.(*FaultError); !ok || fe.Addr != 0x2000 || fe.Write {
		t.Fatalf("ReadU64 error %v, want a read fault at 0x2000", err)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, ok := m.LoadU64(0x7000); ok {
			t.Fatal("load of an absent page succeeded")
		}
		if m.StoreU64(0x3008, 1) || m.StoreU8(0x3008, 1) {
			t.Fatal("store to a read-only page succeeded")
		}
	})
	if n != 0 {
		t.Fatalf("%v allocs per faulting access, want 0", n)
	}
}
