// Package mem provides the sparse, paged, byte-addressable memory used by
// the machine simulator, plus the canonical address-space layout that the
// linker enforces identically on every ISA (the paper's "common address
// space layout").
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// PageSize is the virtual-memory page size in bytes. The DSM service
// migrates memory at this granularity.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Canonical address-space layout. The linker places symbols at identical
// addresses on all ISAs within these windows, which is what lets the
// identity function map process state between ISA-specific binaries.
const (
	// TextBase is where aliased per-ISA machine code begins.
	TextBase uint64 = 0x0000_0000_0040_0000
	// DataBase is where aligned globals (data, rodata, bss) begin.
	DataBase uint64 = 0x0000_0000_1000_0000
	// HeapBase is the initial program break; sbrk grows upward from here.
	HeapBase uint64 = 0x0000_0000_2000_0000
	// VDSOBase is the shared user/kernel page holding the migration-request
	// flags the scheduler raises and migration points poll.
	VDSOBase uint64 = 0x0000_0000_7000_0000
	// StackRegion is the base of the per-thread stack area. Each thread gets
	// a window of StackWindow bytes split into two halves, enabling the
	// two-halves stack-transformation scheme.
	StackRegion uint64 = 0x0000_0000_7800_0000
	// StackWindow is the size of one thread's stack window (both halves).
	StackWindow uint64 = 2 * StackHalf
	// StackHalf is the size of one half of a thread stack.
	StackHalf uint64 = 256 * 1024
	// MaxThreads bounds thread IDs so stack windows never collide.
	MaxThreads = 512
)

// PageIndex returns the page number containing addr.
func PageIndex(addr uint64) uint64 { return addr >> PageShift }

// PageBase returns the first address of the page containing addr.
func PageBase(addr uint64) uint64 { return addr &^ (PageSize - 1) }

// AlignUp rounds v up to the next multiple of align (a power of two).
func AlignUp(v, align uint64) uint64 { return (v + align - 1) &^ (align - 1) }

// ThreadStackWindow returns [lo, hi) of the stack window for thread tid.
func ThreadStackWindow(tid int) (lo, hi uint64) {
	if tid < 0 || tid >= MaxThreads {
		panic(fmt.Sprintf("mem: thread id %d out of range", tid))
	}
	lo = StackRegion + uint64(tid)*StackWindow
	return lo, lo + StackWindow
}

// Page is one 4 KiB page of simulated physical memory.
type Page [PageSize]byte

// FaultError is returned when an access touches a page that is not present
// in the local memory; the kernel's DSM service resolves it.
type FaultError struct {
	Addr  uint64
	Write bool
}

func (e *FaultError) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	return fmt.Sprintf("page fault: %s at %#x", kind, e.Addr)
}

// Memory is one kernel's view of an address space: a sparse set of present
// pages, some write-protected. Accesses to absent pages — and writes to
// protected pages — return *FaultError so the caller (the machine simulator)
// can trap into the kernel's DSM service, exactly as a hardware page fault
// would. A write-protected page is the local copy of a DSM page in the
// Shared state.
//
// The pages sit in a one-level page table: leaves of leafPages consecutive
// pages, sorted by key, found by a binary search that writes nothing (the
// interpreter's TLB is the cache in front of it). An empty Memory has no
// leaves; a leaf, once made, stays, so a page that leaves and comes back —
// DSM ping-pong — costs no allocation.
type Memory struct {
	// leaves lists the page table's leaves by ascending key. Each key sits
	// beside its pointer, so a search reads only this dense array and
	// follows one pointer, to the leaf it found.
	leaves []leafEntry
	// epoch counts the changes that can make a cached translation wrong: a
	// page dropped or its protection changed. A TLB compares it on Attach.
	epoch uint64
	// free holds up to maxFreeFrames frames this memory dropped, for
	// EnsurePage to zero and reuse. A frame belongs to exactly one Memory:
	// it is either mapped in the table or parked here, never both, and never
	// reachable from a second Memory (TakePage/AdoptPage hand it over).
	// The list belongs to the address space, so only the sharing group
	// that runs the process ever touches it.
	free []*Page
}

// leafPages is how many consecutive pages one page-table leaf maps. Most
// leaves are sparse — the vDSO page, the top of a thread's stack half — so
// the leaf size sets the table's memory. Measured on the benchmark (2-CPU
// host, against the two maps the table replaced): at 64 pages flagship's
// live_heap_mb rose 6.4 % (2.31 to 2.46 MB) and its alloc_mb_per_op 5.5 %;
// at 32 they rose 2.0 % and 0.5 %, with migrate's allocations the same at
// both (1,312 and 1,319 per op).
const (
	leafShift = 5
	leafPages = 1 << leafShift
)

// leafEntry is one leaf of a Memory's page table: it maps the pages
// key<<leafShift .. key<<leafShift+leafPages-1.
type leafEntry struct {
	key uint64
	*leaf
}

// leaf holds a leafEntry's pages. Bit i of ro write-protects page i,
// present or not: as with a hardware PTE's permission bits, Protect before
// a page arrives makes it arrive read-only.
type leaf struct {
	ro    uint32
	pages [leafPages]*Page
}

// find returns the leaf holding page idx, or nil.
func (m *Memory) find(idx uint64) *leaf {
	i := m.search(idx >> leafShift)
	if i < len(m.leaves) && m.leaves[i].key == idx>>leafShift {
		return m.leaves[i].leaf
	}
	return nil
}

// search returns the position of the first leaf whose key is not below key.
// It is written out, not slices.BinarySearchFunc, so that a TLB miss calls
// no comparison function per probe.
func (m *Memory) search(key uint64) int {
	lo, hi := 0, len(m.leaves)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if m.leaves[h].key < key {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// leafOf returns the leaf holding page idx, making it if there is none.
func (m *Memory) leafOf(idx uint64) *leaf {
	key := idx >> leafShift
	i := m.search(key)
	if i == len(m.leaves) || m.leaves[i].key != key {
		m.leaves = slices.Insert(m.leaves, i, leafEntry{key, new(leaf)})
	}
	return m.leaves[i].leaf
}

// lookup returns the page idx and whether it is read-only; p is nil when
// the page is absent.
func (m *Memory) lookup(idx uint64) (p *Page, ro bool) {
	l := m.find(idx)
	if l == nil {
		return nil, false
	}
	slot := idx & (leafPages - 1)
	return l.pages[slot], l.ro>>slot&1 != 0
}

// maxFreeFrames caps a Memory's free list. An exclusive DSM transfer moves
// the frame itself, so the list serves the copies that are dropped and
// faulted back: a sharer invalidated by the next write, then reading again.
// Measured on the migrate benchmark (2-CPU host, alloc_mb_per_op /
// live_heap_mb at each cap): 0: 540 / 3.82, 1: 25.3 / 3.83, 4: 6.2 / 3.85,
// 8: 5.7 / 3.87, 32: 5.7 / 3.96, uncapped: 5.7 / 5.59. Eight is where the
// allocation stops falling; uncapped, the source side of a container move
// parks ~420 frames nobody asks for again and live_heap_mb rises 46 %, over
// its 10 % bound.
const maxFreeFrames = 8

// NewMemory returns an empty memory with no pages present.
func NewMemory() *Memory { return new(Memory) }

// Protect marks the page containing addr read-only.
func (m *Memory) Protect(addr uint64) {
	idx := PageIndex(addr)
	m.leafOf(idx).ro |= 1 << (idx & (leafPages - 1))
	m.epoch++
}

// Unprotect clears the read-only bit on the page containing addr.
func (m *Memory) Unprotect(addr uint64) {
	idx := PageIndex(addr)
	if l := m.find(idx); l != nil {
		l.ro &^= 1 << (idx & (leafPages - 1))
	}
	m.epoch++
}

// Writable reports whether the page containing addr is present and writable.
func (m *Memory) Writable(addr uint64) bool {
	p, ro := m.lookup(PageIndex(addr))
	return p != nil && !ro
}

// Present reports whether the page containing addr is present.
func (m *Memory) Present(addr uint64) bool { return m.Page(addr) != nil }

// EnsurePage makes the page containing addr present (zero-filled if new)
// and returns it.
func (m *Memory) EnsurePage(addr uint64) *Page {
	idx := PageIndex(addr)
	l := m.leafOf(idx)
	slot := &l.pages[idx&(leafPages-1)]
	if *slot == nil {
		if n := len(m.free); n > 0 {
			*slot, m.free[n-1] = m.free[n-1], nil
			m.free = m.free[:n-1]
			**slot = Page{}
		} else {
			*slot = new(Page)
		}
	}
	return *slot
}

// Page returns the present page containing addr, or nil.
func (m *Memory) Page(addr uint64) *Page {
	p, _ := m.lookup(PageIndex(addr))
	return p
}

// DropPage removes the page containing addr (used when DSM invalidates a
// copy); its frame is kept for reuse while the free list has room.
func (m *Memory) DropPage(addr uint64) {
	m.recycle(m.TakePage(addr))
}

// TakePage removes the page containing addr, clears its protection and
// returns its frame, which now belongs to the caller (nil if the page was
// absent). It is how a DSM transfer of ownership moves a page out: the
// frame goes to the requester's AdoptPage instead of being copied and
// dropped.
func (m *Memory) TakePage(addr uint64) *Page {
	m.epoch++
	idx := PageIndex(addr)
	l := m.find(idx)
	if l == nil {
		return nil
	}
	slot := idx & (leafPages - 1)
	p := l.pages[slot]
	l.pages[slot] = nil
	l.ro &^= 1 << slot
	return p
}

// AdoptPage makes frame, which the caller owns (from another Memory's
// TakePage), this memory's page containing addr. A page already present
// keeps its *Page and receives the content, the spare frame is recycled;
// either way no cached translation goes stale, since a TLB never caches an
// absent page.
func (m *Memory) AdoptPage(addr uint64, frame *Page) {
	idx := PageIndex(addr)
	slot := &m.leafOf(idx).pages[idx&(leafPages-1)]
	if p := *slot; p != nil {
		*p = *frame
		m.recycle(frame)
		return
	}
	*slot = frame
}

// recycle parks a frame nobody maps any more on the free list, or leaves it
// to the collector when the list is full.
func (m *Memory) recycle(p *Page) {
	if p != nil && len(m.free) < maxFreeFrames {
		m.free = append(m.free, p)
	}
}

// Release empties m for good when its address space is gone: its pages
// and parked frames go to the collector, and the epoch moves on, so a TLB
// still attached to m drops its entries at its next Attach. Only such a
// TLB may still hold m's frames.
func (m *Memory) Release() {
	m.leaves, m.free = nil, nil
	m.epoch++
}

// AuditFrames checks the ownership rule over a set of memories (one address
// space's, typically; a nil entry is a memory never built and is skipped):
// every frame is mapped by exactly one page of one memory or parked on
// exactly one free list, and no free list exceeds its cap. It returns the
// first violation.
func AuditFrames(mems []*Memory) error {
	type place struct {
		mem  int
		page uint64 // page index, or ^0 for the free list
	}
	seen := make(map[*Page]place)
	claim := func(p *Page, at place) error {
		if prev, dup := seen[p]; dup {
			return fmt.Errorf("mem: frame %p reachable from memory %d (page %#x) and memory %d (page %#x)",
				p, prev.mem, prev.page, at.mem, at.page)
		}
		seen[p] = at
		return nil
	}
	for i, m := range mems {
		if m == nil {
			continue
		}
		for _, l := range m.leaves {
			for slot, p := range l.pages {
				if p == nil {
					continue
				}
				if err := claim(p, place{i, l.key<<leafShift | uint64(slot)}); err != nil {
					return err
				}
			}
		}
		if len(m.free) > maxFreeFrames {
			return fmt.Errorf("mem: memory %d parks %d frames, cap %d", i, len(m.free), maxFreeFrames)
		}
		for _, p := range m.free {
			if err := claim(p, place{i, ^uint64(0)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// InstallPage copies the given page content in at the page containing addr
// (data may be nil: the page is then only made present, zero-filled if new).
// A page already present keeps its *Page, so cached translations stay valid.
func (m *Memory) InstallPage(addr uint64, data *Page) {
	p := m.EnsurePage(addr)
	if data != nil {
		*p = *data
	}
}

// PageIndices returns the indices of all present pages, ascending.
func (m *Memory) PageIndices() []uint64 {
	n := 0
	for _, l := range m.leaves {
		for _, p := range l.pages {
			if p != nil {
				n++
			}
		}
	}
	out := make([]uint64, 0, n)
	for _, l := range m.leaves {
		for slot, p := range l.pages {
			if p != nil {
				out = append(out, l.key<<leafShift|uint64(slot))
			}
		}
	}
	return out
}

// page returns the page containing addr if the access is allowed, or nil
// when it faults: the page is absent or, for a write, read-only.
func (m *Memory) page(addr uint64, write bool) *Page {
	p, ro := m.lookup(PageIndex(addr))
	if write && ro {
		return nil
	}
	return p
}

// LoadU64 reads the 8-byte little-endian value at addr; ok is false on a
// fault. It and StoreU64, LoadU8, StoreU8 are the accessors for callers that
// resolve faults themselves and retry (the kernel's synchronous memory view):
// a fault costs them no allocation. ReadU64 and friends wrap them with the
// *FaultError the rest of the system reports.
//
// Unaligned accesses that straddle a page boundary are handled byte-wise.
func (m *Memory) LoadU64(addr uint64) (v uint64, ok bool) {
	off := addr & (PageSize - 1)
	if off <= PageSize-8 {
		p := m.page(addr, false)
		if p == nil {
			return 0, false
		}
		return binary.LittleEndian.Uint64(p[off : off+8 : off+8]), true
	}
	for i := uint64(0); i < 8; i++ {
		b, ok := m.LoadU8(addr + i)
		if !ok {
			return 0, false
		}
		v |= uint64(b) << (8 * i)
	}
	return v, true
}

// StoreU64 writes the 8-byte little-endian value at addr; false on a fault
// (a straddling store may then have written its first bytes, as WriteU64's).
func (m *Memory) StoreU64(addr uint64, v uint64) bool {
	off := addr & (PageSize - 1)
	if off <= PageSize-8 {
		p := m.page(addr, true)
		if p == nil {
			return false
		}
		binary.LittleEndian.PutUint64(p[off:off+8:off+8], v)
		return true
	}
	for i := uint64(0); i < 8; i++ {
		if !m.StoreU8(addr+i, byte(v>>(8*i))) {
			return false
		}
	}
	return true
}

// LoadU8 reads one byte at addr; ok is false on a fault.
func (m *Memory) LoadU8(addr uint64) (v byte, ok bool) {
	p := m.page(addr, false)
	if p == nil {
		return 0, false
	}
	return p[addr&(PageSize-1)], true
}

// StoreU8 writes one byte at addr; false on a fault.
func (m *Memory) StoreU8(addr uint64, v byte) bool {
	p := m.page(addr, true)
	if p == nil {
		return false
	}
	p[addr&(PageSize-1)] = v
	return true
}

// FaultAddr returns where an access of size bytes at addr, which just
// faulted, took its fault: at addr itself, or — when that page allows the
// access — at the first byte of the next page a straddling access ran into.
func (m *Memory) FaultAddr(addr, size uint64, write bool) uint64 {
	if m.page(addr, write) != nil {
		return PageBase(addr + size - 1)
	}
	return addr
}

// ReadU64 reads the 8-byte little-endian value at addr. Unaligned accesses
// that straddle a page boundary are handled byte-wise.
func (m *Memory) ReadU64(addr uint64) (uint64, error) {
	if v, ok := m.LoadU64(addr); ok {
		return v, nil
	}
	return 0, &FaultError{Addr: m.FaultAddr(addr, 8, false)}
}

// WriteU64 writes the 8-byte little-endian value at addr.
func (m *Memory) WriteU64(addr uint64, v uint64) error {
	if m.StoreU64(addr, v) {
		return nil
	}
	return &FaultError{Addr: m.FaultAddr(addr, 8, true), Write: true}
}

// ReadU8 reads one byte at addr.
func (m *Memory) ReadU8(addr uint64) (byte, error) {
	if v, ok := m.LoadU8(addr); ok {
		return v, nil
	}
	return 0, &FaultError{Addr: addr}
}

// WriteU8 writes one byte at addr.
func (m *Memory) WriteU8(addr uint64, v byte) error {
	if m.StoreU8(addr, v) {
		return nil
	}
	return &FaultError{Addr: addr, Write: true}
}

// ReadF64 reads a float64 at addr.
func (m *Memory) ReadF64(addr uint64) (float64, error) {
	v, err := m.ReadU64(addr)
	return math.Float64frombits(v), err
}

// WriteF64 writes a float64 at addr.
func (m *Memory) WriteF64(addr uint64, f float64) error {
	return m.WriteU64(addr, math.Float64bits(f))
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (m *Memory) ReadBytes(addr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := 0; i < n; {
		p := m.page(addr+uint64(i), false)
		if p == nil {
			return nil, &FaultError{Addr: addr + uint64(i)}
		}
		off := (addr + uint64(i)) & (PageSize - 1)
		c := copy(out[i:], p[off:])
		i += c
	}
	return out, nil
}

// WriteBytes copies data into memory starting at addr, faulting in pages as
// needed via EnsurePage (used by loaders, not by simulated code).
func (m *Memory) WriteBytes(addr uint64, data []byte) {
	for i := 0; i < len(data); {
		p := m.EnsurePage(addr + uint64(i))
		off := (addr + uint64(i)) & (PageSize - 1)
		c := copy(p[off:], data[i:])
		i += c
	}
}

// ReadCString reads a NUL-terminated string of at most max bytes at addr.
func (m *Memory) ReadCString(addr uint64, max int) (string, error) {
	var buf []byte
	for i := 0; i < max; i++ {
		b, err := m.ReadU8(addr + uint64(i))
		if err != nil {
			return "", err
		}
		if b == 0 {
			break
		}
		buf = append(buf, b)
	}
	return string(buf), nil
}
