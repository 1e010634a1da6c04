package mem

import "testing"

const tlbTestAddr = HeapBase + 0x18

// tlbOn returns a TLB attached to m, as the interpreter holds one.
func tlbOn(m *Memory) *TLB {
	t := new(TLB)
	t.Attach(m)
	return t
}

func TestTLBSeesProtectionChanges(t *testing.T) {
	m := NewMemory()
	m.EnsurePage(tlbTestAddr)
	tlb := tlbOn(m)
	if !tlb.WriteU64(tlbTestAddr, 7) || !tlb.WriteU8(tlbTestAddr+8, 9) {
		t.Fatal("write to a present, writable page faulted")
	}
	if v, ok := tlb.ReadU64(tlbTestAddr); !ok || v != 7 {
		t.Fatalf("read back %d, %v", v, ok)
	}

	// The translation is cached as writable; Protect must take that away
	// and leave reads alone.
	m.Protect(tlbTestAddr)
	tlb.Attach(m)
	if tlb.WriteU64(tlbTestAddr, 8) || tlb.WriteU8(tlbTestAddr, 8) {
		t.Fatal("write to a read-only page succeeded through the cached translation")
	}
	if v, ok := tlb.ReadU64(tlbTestAddr); !ok || v != 7 {
		t.Fatalf("read of a read-only page: %d, %v; want 7", v, ok)
	}
	if b, ok := tlb.ReadU8(tlbTestAddr + 8); !ok || b != 9 {
		t.Fatalf("byte read of a read-only page: %d, %v; want 9", b, ok)
	}

	m.Unprotect(tlbTestAddr)
	tlb.Attach(m)
	if !tlb.WriteU64(tlbTestAddr, 8) {
		t.Fatal("write after Unprotect faulted")
	}

	m.DropPage(tlbTestAddr)
	tlb.Attach(m)
	if _, ok := tlb.ReadU64(tlbTestAddr); ok {
		t.Fatal("read of a dropped page succeeded through the cached translation")
	}
	if _, ok := tlb.ReadU8(tlbTestAddr); ok {
		t.Fatal("byte read of a dropped page succeeded")
	}
	if tlb.WriteU64(tlbTestAddr, 1) {
		t.Fatal("write to a dropped page succeeded")
	}
}

// InstallPage and kernel-side writes go to the *Page a cached translation
// already points at, so they are visible without any invalidation; a page
// that appears after a miss is found on the next access.
func TestTLBSeesInstalledContent(t *testing.T) {
	m := NewMemory()
	tlb := tlbOn(m)
	if _, ok := tlb.ReadU64(tlbTestAddr); ok {
		t.Fatal("read of an absent page succeeded")
	}
	m.EnsurePage(tlbTestAddr)
	if v, ok := tlb.ReadU64(tlbTestAddr); !ok || v != 0 {
		t.Fatalf("read after EnsurePage: %d, %v", v, ok)
	}
	var content Page
	content[tlbTestAddr&(PageSize-1)] = 0x5a
	m.InstallPage(tlbTestAddr, &content)
	if v, ok := tlb.ReadU64(tlbTestAddr); !ok || v != 0x5a {
		t.Fatalf("read after InstallPage: %#x, %v; want 0x5a", v, ok)
	}
	if err := m.WriteU64(tlbTestAddr, 0x77); err != nil {
		t.Fatal(err)
	}
	if v, _ := tlb.ReadU64(tlbTestAddr); v != 0x77 {
		t.Fatalf("read after a direct Memory write: %#x, want 0x77", v)
	}
	if !tlb.WriteU64(tlbTestAddr, 0x78) {
		t.Fatal("write faulted")
	}
	if v, _ := m.ReadU64(tlbTestAddr); v != 0x78 {
		t.Fatalf("Memory read after a TLB write: %#x, want 0x78", v)
	}
}

// One core runs threads of many processes: re-attaching to another Memory
// must forget every translation of the previous one.
func TestTLBSwappedMemoriesStayApart(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	a.EnsurePage(tlbTestAddr)
	b.EnsurePage(tlbTestAddr)
	a.EnsurePage(tlbTestAddr + PageSize) // only in a
	tlb := tlbOn(a)
	tlb.WriteU64(tlbTestAddr, 0xa)
	tlb.WriteU64(tlbTestAddr+PageSize, 0xaa)

	tlb.Attach(b)
	if v, ok := tlb.ReadU64(tlbTestAddr); !ok || v != 0 {
		t.Fatalf("b read a's word: %#x, %v", v, ok)
	}
	if _, ok := tlb.ReadU64(tlbTestAddr + PageSize); ok {
		t.Fatal("b read a page only a has")
	}
	tlb.WriteU64(tlbTestAddr, 0xb)

	tlb.Attach(a)
	if v, _ := tlb.ReadU64(tlbTestAddr); v != 0xa {
		t.Fatalf("a reads %#x after b's write, want 0xa", v)
	}
	if v, _ := b.ReadU64(tlbTestAddr); v != 0xb {
		t.Fatalf("b holds %#x, want 0xb", v)
	}
}

// Accesses that straddle a page boundary take Memory's byte-wise path and
// fault when either page is absent or, for a write, read-only.
func TestTLBStraddle(t *testing.T) {
	m := NewMemory()
	addr := HeapBase + PageSize - 3
	m.EnsurePage(addr)
	tlb := tlbOn(m)
	if _, ok := tlb.ReadU64(addr); ok {
		t.Fatal("straddling read with the second page absent succeeded")
	}
	m.EnsurePage(addr + 7)
	if !tlb.WriteU64(addr, 0x1122334455667788) {
		t.Fatal("straddling write faulted")
	}
	if v, ok := tlb.ReadU64(addr); !ok || v != 0x1122334455667788 {
		t.Fatalf("straddling read %#x, %v", v, ok)
	}
	m.Protect(addr + 7)
	tlb.Attach(m)
	if tlb.WriteU64(addr, 1) {
		t.Fatal("straddling write into a read-only page succeeded")
	}
}

// Pages that collide in the direct-mapped table evict each other and stay
// correct.
func TestTLBConflictingPages(t *testing.T) {
	m := NewMemory()
	tlb := tlbOn(m)
	for i := uint64(0); i < 4; i++ {
		a := HeapBase + i*tlbEntries*PageSize
		m.EnsurePage(a)
		if !tlb.WriteU64(a, i+1) {
			t.Fatalf("write %d faulted", i)
		}
	}
	for i := uint64(0); i < 4; i++ {
		if v, ok := tlb.ReadU64(HeapBase + i*tlbEntries*PageSize); !ok || v != i+1 {
			t.Fatalf("page %d reads %d, %v", i, v, ok)
		}
	}
}

// rw is BenchmarkMemRW's body: a read-modify-write walk over resident pages.
func rw(tlb *TLB, pages uint64) bool {
	ok := true
	for i := uint64(0); i < pages*8; i++ {
		a := HeapBase + (i*520)%(pages*PageSize)&^7
		v, rok := tlb.ReadU64(a)
		ok = ok && rok && tlb.WriteU64(a, v+1)
	}
	return ok
}

func residentPages(pages uint64) *Memory {
	m := NewMemory()
	for p := uint64(0); p < pages; p++ {
		m.EnsurePage(HeapBase + p*PageSize)
	}
	return m
}

func BenchmarkMemRW(b *testing.B) {
	const pages = 32
	tlb := tlbOn(residentPages(pages))
	b.ReportAllocs()
	for i := 0; i < b.N; i += 2 * pages * 8 {
		if !rw(tlb, pages) {
			b.Fatal("fault on a resident page")
		}
	}
}

func TestTLBAccessDoesNotAllocate(t *testing.T) {
	const pages = 32
	m := residentPages(pages)
	tlb := tlbOn(m)
	if n := testing.AllocsPerRun(10, func() {
		tlb.Attach(m)
		rw(tlb, pages)
		tlb.ReadU64(VDSOBase) // a fault: absent page
	}); n != 0 {
		t.Errorf("%v allocs per run on the load/store path, want 0", n)
	}
}
