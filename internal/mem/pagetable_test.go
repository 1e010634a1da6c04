package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// mapMemory is Memory the way it was before the page table: a page map and
// a read-only map, with the same free list. The property test runs it beside
// the real thing.
type mapMemory struct {
	pages map[uint64]*Page
	ro    map[uint64]bool
	free  []*Page
}

func newMapMemory() *mapMemory {
	return &mapMemory{pages: map[uint64]*Page{}, ro: map[uint64]bool{}}
}

// ensure makes page idx present; got is the frame the real memory returned,
// which the model takes as its own when it has none parked to predict.
func (m *mapMemory) ensure(idx uint64, got *Page) *Page {
	if p := m.pages[idx]; p != nil {
		return p
	}
	p := got
	if n := len(m.free); n > 0 {
		p, m.free = m.free[n-1], m.free[:n-1]
	}
	m.pages[idx] = p
	return p
}

func (m *mapMemory) take(idx uint64) *Page {
	p := m.pages[idx]
	delete(m.pages, idx)
	delete(m.ro, idx)
	return p
}

func (m *mapMemory) recycle(p *Page) {
	if p != nil && len(m.free) < maxFreeFrames {
		m.free = append(m.free, p)
	}
}

// pageTableAddrs returns the walk's addresses: pages at, beside and across
// leaf edges in the data, heap, vDSO and stack windows, and wild addresses
// at both ends of the 64-bit space.
func pageTableAddrs() []uint64 {
	lo, _ := ThreadStackWindow(3)
	bases := []uint64{
		0, DataBase, HeapBase, VDSOBase, StackRegion, lo + StackHalf - 2*PageSize,
		1 << 63, PageBase(^uint64(0)) - 3*leafPages*PageSize,
	}
	addrs := []uint64{^uint64(0), PageBase(^uint64(0)) - 7}
	for _, b := range bases {
		for _, pg := range []uint64{0, 1, leafPages - 1, leafPages, leafPages + 1, 2*leafPages - 1, 2 * leafPages, 39} {
			addrs = append(addrs, b+pg*PageSize+pg*8%PageSize)
		}
	}
	return addrs
}

// The page table answers every question the two maps did: a seeded walk of
// EnsurePage, InstallPage, TakePage/AdoptPage, DropPage, Protect and
// Unprotect over two memories agrees with the map model after every step on
// presence, protection, frame identity (the free list included), the
// ascending index list, frame ownership and a TLB attached to each memory.
func TestPageTableMatchesMapModel(t *testing.T) {
	addrs := pageTableAddrs()
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			mems := []*Memory{NewMemory(), NewMemory()}
			models := []*mapMemory{newMapMemory(), newMapMemory()}
			tlbs := make([]TLB, len(mems))
			var content Page
			for step := 0; step < 4000; step++ {
				i := rng.Intn(len(mems))
				m, model := mems[i], models[i]
				addr := addrs[rng.Intn(len(addrs))]
				idx := PageIndex(addr)
				var what string
				switch r := rng.Intn(100); {
				case r < 25:
					what = "EnsurePage"
					fresh := model.pages[idx] == nil
					got := m.EnsurePage(addr)
					if want := model.ensure(idx, got); got != want {
						t.Fatalf("step %d: EnsurePage(%#x) gave frame %p, model %p", step, addr, got, want)
					}
					if fresh && *got != (Page{}) {
						t.Fatalf("step %d: EnsurePage(%#x) handed out a dirty frame", step, addr)
					}
					got[addr&(PageSize-1)] = byte(step) | 1
				case r < 35:
					what = "InstallPage"
					content[rng.Intn(PageSize)] = byte(step)
					data := &content
					if rng.Intn(3) == 0 {
						data = nil
					}
					m.InstallPage(addr, data)
					p := model.ensure(idx, m.Page(addr))
					if data != nil && *p != content {
						t.Fatalf("step %d: InstallPage(%#x) did not copy the content", step, addr)
					}
				case r < 55:
					what = "TakePage+AdoptPage"
					j := 1 - i
					to := addrs[rng.Intn(len(addrs))]
					frame := m.TakePage(addr)
					if want := model.take(idx); frame != want {
						t.Fatalf("step %d: TakePage(%#x) gave frame %p, model %p", step, addr, frame, want)
					}
					if frame == nil {
						break
					}
					mems[j].AdoptPage(to, frame)
					if p := models[j].pages[PageIndex(to)]; p != nil {
						*p = *frame
						models[j].recycle(frame)
					} else {
						models[j].pages[PageIndex(to)] = frame
					}
				case r < 70:
					what = "DropPage"
					m.DropPage(addr)
					model.recycle(model.take(idx))
				case r < 85:
					what = "Protect"
					m.Protect(addr)
					model.ro[idx] = true
				default:
					what = "Unprotect"
					m.Unprotect(addr)
					delete(model.ro, idx)
				}
				for k := range mems {
					if err := checkAgainstModel(mems[k], models[k], &tlbs[k], addrs); err != nil {
						t.Fatalf("step %d (%s %#x on memory %d): memory %d: %v", step, what, addr, i, k, err)
					}
				}
				if err := AuditFrames(mems); err != nil {
					t.Fatalf("step %d (%s %#x on memory %d): %v", step, what, addr, i, err)
				}
			}
		})
	}
}

// checkAgainstModel compares m, directly and through tlb, with its model at
// every address of the walk.
func checkAgainstModel(m *Memory, model *mapMemory, tlb *TLB, addrs []uint64) error {
	want := make([]uint64, 0, len(model.pages))
	for idx := range model.pages {
		want = append(want, idx)
	}
	slices.Sort(want)
	if got := m.PageIndices(); !slices.Equal(got, want) {
		return fmt.Errorf("PageIndices %#x, want %#x", got, want)
	}
	if !slices.Equal(m.free, model.free) {
		return fmt.Errorf("free list %p, model %p", m.free, model.free)
	}
	tlb.Attach(m)
	for _, addr := range addrs {
		idx := PageIndex(addr)
		p, writable := model.pages[idx], model.pages[idx] != nil && !model.ro[idx]
		if m.Page(addr) != p || m.Present(addr) != (p != nil) || m.Writable(addr) != writable {
			return fmt.Errorf("%#x: page %p present %v writable %v, model %p %v %v",
				addr, m.Page(addr), m.Present(addr), m.Writable(addr), p, p != nil, writable)
		}
		b, ok := tlb.ReadU8(addr)
		if ok != (p != nil) || ok && b != p[addr&(PageSize-1)] {
			return fmt.Errorf("%#x: TLB read %d, %v; model present %v", addr, b, ok, p != nil)
		}
		if tlb.WriteU8(addr, b) != writable {
			return fmt.Errorf("%#x: TLB write allowed %v, model writable %v", addr, !writable, writable)
		}
	}
	return nil
}
