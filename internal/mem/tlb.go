package mem

import "encoding/binary"

// tlbEntries is the number of direct-mapped translations a TLB holds.
const tlbEntries = 64

// tlbEntry caches one page translation. key is (page index + 1) << 1 with
// bit 0 set when the page is writable; 0 is the empty entry.
type tlbEntry struct {
	key  uint64
	page *Page
}

// TLB is a software translation cache in front of one Memory's page table,
// for the interpreter's loads and stores: a hit costs an index and a
// compare where Memory's accessors cost a binary search over the leaves. It
// holds only positive translations, so pages that appear (EnsurePage) need
// no invalidation; pages that go away or change protection bump the
// Memory's epoch, and Attach drops every entry when the epoch — or the
// Memory itself — differs from the one the entries were filled under.
//
// The state lives with the accessor (one per machine.Core, allocated at the
// core's first instruction) and not in Memory: every process owns a Memory
// per node, most of which never execute a guest instruction.
type TLB struct {
	m     *Memory
	epoch uint64
	ent   [tlbEntries]tlbEntry
}

// Attach points the TLB at m and revalidates it. Call it whenever m may
// have been swapped, or pages dropped or re-protected, since the last use —
// the interpreter does so on entry to every run.
func (t *TLB) Attach(m *Memory) {
	if t.m != m || t.epoch != m.epoch {
		*t = TLB{m: m, epoch: m.epoch}
	}
}

// ReadHit returns the cached page containing addr, or nil on a miss. It and
// WriteHit are small enough to inline into the accessors and into the
// interpreter, whose loads and stores of a word inside one page probe them
// directly and take the accessors only on a miss.
func (t *TLB) ReadHit(addr uint64) *Page {
	if e := &t.ent[PageIndex(addr)%tlbEntries]; e.key>>1 == PageIndex(addr)+1 {
		return e.page
	}
	return nil
}

// WriteHit returns the cached page containing addr if it is cached as
// writable, or nil on a miss.
func (t *TLB) WriteHit(addr uint64) *Page {
	if e := &t.ent[PageIndex(addr)%tlbEntries]; e.key == (PageIndex(addr)+1)<<1|1 {
		return e.page
	}
	return nil
}

// fill is the miss path: consult the Memory's page table, cache what it
// says about a present page, and return it — nil if it is absent or, for a
// write, read-only.
func (t *TLB) fill(addr uint64, write bool) *Page {
	idx := PageIndex(addr)
	p, ro := t.m.lookup(idx)
	if p == nil {
		return nil
	}
	e := &t.ent[idx%tlbEntries]
	e.key, e.page = (idx+1)<<1, p
	if !ro {
		e.key |= 1
	} else if write {
		return nil
	}
	return p
}

// ReadU64 is Memory.ReadU64 through the cache; ok is false on a fault.
func (t *TLB) ReadU64(addr uint64) (v uint64, ok bool) {
	off := addr & (PageSize - 1)
	if off > PageSize-8 { // straddles two pages: Memory's byte-wise path
		return t.m.LoadU64(addr)
	}
	p := t.ReadHit(addr)
	if p == nil {
		if p = t.fill(addr, false); p == nil {
			return 0, false
		}
	}
	return binary.LittleEndian.Uint64(p[off : off+8 : off+8]), true
}

// WriteU64 is Memory.WriteU64 through the cache; false on a fault.
func (t *TLB) WriteU64(addr uint64, v uint64) bool {
	off := addr & (PageSize - 1)
	if off > PageSize-8 { // straddles two pages: Memory's byte-wise path
		return t.m.StoreU64(addr, v)
	}
	p := t.WriteHit(addr)
	if p == nil {
		if p = t.fill(addr, true); p == nil {
			return false
		}
	}
	binary.LittleEndian.PutUint64(p[off:off+8:off+8], v)
	return true
}

// ReadU8 is Memory.ReadU8 through the cache; ok is false on a fault.
func (t *TLB) ReadU8(addr uint64) (v byte, ok bool) {
	p := t.ReadHit(addr)
	if p == nil {
		if p = t.fill(addr, false); p == nil {
			return 0, false
		}
	}
	return p[addr&(PageSize-1)], true
}

// WriteU8 is Memory.WriteU8 through the cache; false on a fault.
func (t *TLB) WriteU8(addr uint64, v byte) bool {
	p := t.WriteHit(addr)
	if p == nil {
		if p = t.fill(addr, true); p == nil {
			return false
		}
	}
	p[addr&(PageSize-1)] = v
	return true
}
