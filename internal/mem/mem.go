// Package mem provides the sparse, paged, byte-addressable memory used by
// the machine simulator, plus the canonical address-space layout that the
// linker enforces identically on every ISA (the paper's "common address
// space layout").
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
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
type Memory struct {
	pages map[uint64]*Page
	ro    map[uint64]bool
	// epoch counts the changes that can make a cached translation wrong: a
	// page dropped or its protection changed. A TLB compares it on Attach.
	epoch uint64
}

// NewMemory returns an empty memory with no pages present.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*Page), ro: make(map[uint64]bool)}
}

// Protect marks the page containing addr read-only.
func (m *Memory) Protect(addr uint64) {
	m.ro[PageIndex(addr)] = true
	m.epoch++
}

// Unprotect clears the read-only bit on the page containing addr.
func (m *Memory) Unprotect(addr uint64) {
	delete(m.ro, PageIndex(addr))
	m.epoch++
}

// Writable reports whether the page containing addr is present and writable.
func (m *Memory) Writable(addr uint64) bool {
	idx := PageIndex(addr)
	_, ok := m.pages[idx]
	return ok && !m.ro[idx]
}

// Present reports whether the page containing addr is present.
func (m *Memory) Present(addr uint64) bool {
	_, ok := m.pages[PageIndex(addr)]
	return ok
}

// EnsurePage makes the page containing addr present (zero-filled if new)
// and returns it.
func (m *Memory) EnsurePage(addr uint64) *Page {
	idx := PageIndex(addr)
	p, ok := m.pages[idx]
	if !ok {
		p = new(Page)
		m.pages[idx] = p
	}
	return p
}

// Page returns the present page containing addr, or nil.
func (m *Memory) Page(addr uint64) *Page {
	return m.pages[PageIndex(addr)]
}

// DropPage removes the page containing addr (used when DSM invalidates or
// transfers ownership away).
func (m *Memory) DropPage(addr uint64) {
	delete(m.pages, PageIndex(addr))
	delete(m.ro, PageIndex(addr))
	m.epoch++
}

// InstallPage copies the given page content in at the page containing addr.
// A page already present keeps its *Page, so cached translations stay valid.
func (m *Memory) InstallPage(addr uint64, data *Page) {
	p := m.EnsurePage(addr)
	*p = *data
}

// PageIndices returns the indices of all present pages (unordered).
func (m *Memory) PageIndices() []uint64 {
	out := make([]uint64, 0, len(m.pages))
	for idx := range m.pages {
		out = append(out, idx)
	}
	return out
}

func (m *Memory) page(addr uint64, write bool) (*Page, error) {
	idx := PageIndex(addr)
	p, ok := m.pages[idx]
	if !ok {
		return nil, &FaultError{Addr: addr, Write: write}
	}
	if write && m.ro[idx] {
		return nil, &FaultError{Addr: addr, Write: true}
	}
	return p, nil
}

// ReadU64 reads the 8-byte little-endian value at addr. Unaligned accesses
// that straddle a page boundary are handled byte-wise.
func (m *Memory) ReadU64(addr uint64) (uint64, error) {
	off := addr & (PageSize - 1)
	if off <= PageSize-8 {
		p, err := m.page(addr, false)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(p[off : off+8 : off+8]), nil
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		b, err := m.ReadU8(addr + i)
		if err != nil {
			return 0, err
		}
		v |= uint64(b) << (8 * i)
	}
	return v, nil
}

// WriteU64 writes the 8-byte little-endian value at addr.
func (m *Memory) WriteU64(addr uint64, v uint64) error {
	off := addr & (PageSize - 1)
	if off <= PageSize-8 {
		p, err := m.page(addr, true)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(p[off:off+8:off+8], v)
		return nil
	}
	for i := uint64(0); i < 8; i++ {
		if err := m.WriteU8(addr+i, byte(v>>(8*i))); err != nil {
			return err
		}
	}
	return nil
}

// ReadU8 reads one byte at addr.
func (m *Memory) ReadU8(addr uint64) (byte, error) {
	p, err := m.page(addr, false)
	if err != nil {
		return 0, err
	}
	return p[addr&(PageSize-1)], nil
}

// WriteU8 writes one byte at addr.
func (m *Memory) WriteU8(addr uint64, v byte) error {
	p, err := m.page(addr, true)
	if err != nil {
		return err
	}
	p[addr&(PageSize-1)] = v
	return nil
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
		p, err := m.page(addr+uint64(i), false)
		if err != nil {
			return nil, err
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
