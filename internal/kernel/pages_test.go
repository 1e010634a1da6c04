package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"heterodc/internal/dsm"
	"heterodc/internal/isa"
	"heterodc/internal/mem"
)

// refMem is the memory the way it was before frames moved: every transfer
// snapshots the source, drops, and copies into a frame of the requester's
// own. The property test runs it beside the real thing.
type refMem struct {
	pages map[uint64]*mem.Page
	ro    map[uint64]bool
}

func newRefMem() *refMem { return &refMem{pages: map[uint64]*mem.Page{}, ro: map[uint64]bool{}} }

func (m *refMem) ensure(pg uint64) *mem.Page {
	if m.pages[pg] == nil {
		m.pages[pg] = new(mem.Page)
	}
	return m.pages[pg]
}

func (m *refMem) drop(pg uint64) {
	delete(m.pages, pg)
	delete(m.ro, pg)
}

func (m *refMem) snapshot(pg uint64) *mem.Page {
	src := m.pages[pg]
	if src == nil {
		return nil
	}
	snap := new(mem.Page)
	*snap = *src
	return snap
}

// pageWorld is one address space over three kernels with its reference.
// A kernel's view is built by the first fault it takes, as in a process.
type pageWorld struct {
	cl   *Cluster
	p    *Process
	ref  []*refMem
	tlbs []mem.TLB
}

func newPageWorld() *pageWorld {
	arches := []isa.Arch{isa.X86, isa.ARM64, isa.X86}
	w := &pageWorld{
		cl:   NewCluster(arches, DefaultInterconnect()),
		p:    &Process{Pid: 1, Space: dsm.NewSpace(len(arches)), mems: make([]*mem.Memory, len(arches))},
		tlbs: make([]mem.TLB, len(arches)),
	}
	for range arches {
		w.ref = append(w.ref, newRefMem())
	}
	return w
}

// fault resolves one fault for real and replays the directory's action on
// the reference the way resolveFault used to apply it.
func (w *pageWorld) fault(node int, pg uint64, write bool) (dsm.Action, error) {
	act, _, err := w.cl.Kernels[node].resolveFault(w.p, pg<<mem.PageShift, write, 0)
	if err != nil {
		return act, err
	}
	local := w.ref[node]
	if act.Cold {
		local.ensure(pg)
		return act, nil
	}
	var snap *mem.Page
	if act.TransferFrom >= 0 {
		snap = w.ref[act.TransferFrom].snapshot(pg)
	}
	for _, n := range act.Drop {
		w.ref[n].drop(pg)
	}
	for _, n := range act.Protect {
		w.ref[n].ro[pg] = true
	}
	if act.TransferFrom >= 0 {
		dst := local.ensure(pg)
		if snap != nil {
			*dst = *snap
		}
	}
	if act.Grant == dsm.Shared {
		local.ro[pg] = true
	} else {
		delete(local.ro, pg)
	}
	return act, nil
}

// eagerMove is the serialized/eager baselines' bulk transfer, for real and
// on the reference.
func (w *pageWorld) eagerMove(target int) {
	owners := map[uint64]int{}
	for _, pg := range w.p.Space.OwnedPages() {
		owners[pg] = w.p.Space.Owner(pg)
	}
	w.p.pullAllPages(target)
	for pg, prev := range owners {
		snap := w.ref[prev].snapshot(pg)
		for n, m := range w.ref {
			if n != target {
				m.drop(pg)
			}
		}
		if dst := w.ref[target].ensure(pg); snap != nil {
			*dst = *snap
		}
		delete(w.ref[target].ro, pg)
	}
}

func (w *pageWorld) sweep(node int) {
	dropped, _ := w.p.sweepNode(node)
	for _, pg := range dropped {
		w.ref[node].drop(pg)
	}
}

// check compares every (node, page) with the reference — through Memory and
// through a TLB that has been attached since before the step — and audits
// frame ownership.
func (w *pageWorld) check(pages []uint64) error {
	for node, m := range w.p.mems {
		if m == nil {
			if len(w.ref[node].pages) > 0 {
				return fmt.Errorf("node %d has no view; the reference holds %d pages", node, len(w.ref[node].pages))
			}
			continue
		}
		tlb := &w.tlbs[node]
		tlb.Attach(m)
		for _, pg := range pages {
			base := pg << mem.PageShift
			want := w.ref[node].pages[pg]
			got := m.Page(base)
			if (got == nil) != (want == nil) {
				return fmt.Errorf("node %d page %#x: present %v, reference %v", node, pg, got != nil, want != nil)
			}
			for _, off := range []uint64{0, 8, 2048, mem.PageSize - 8} {
				v, ok := tlb.ReadU64(base + off)
				if ok != (want != nil) {
					return fmt.Errorf("node %d page %#x: TLB read hit %v on a page present %v", node, pg, ok, want != nil)
				}
				if ok && tlb.WriteU64(base+off, v) == w.ref[node].ro[pg] {
					return fmt.Errorf("node %d page %#x: TLB write allowed %v, reference read-only %v",
						node, pg, !w.ref[node].ro[pg], w.ref[node].ro[pg])
				}
			}
			if want == nil {
				continue
			}
			if *got != *want {
				return fmt.Errorf("node %d page %#x: content differs from the copying reference", node, pg)
			}
			if m.Writable(base) == w.ref[node].ro[pg] {
				return fmt.Errorf("node %d page %#x: writable %v, reference read-only %v", node, pg, m.Writable(base), w.ref[node].ro[pg])
			}
		}
	}
	return mem.AuditFrames(w.p.mems)
}

// Frames move between memories on an exclusive transfer and are recycled
// after a drop; none of that may be visible. A seeded walk over faults,
// guest stores, invalidating upgrades, node sweeps and eager bulk moves
// keeps three memories byte-equal to a reference that copies like the code
// did before frames moved, with every frame owned exactly once and no TLB
// serving a page that left. Worlds run concurrently: a frame pool shared
// between address spaces would be a race.
func TestFrameOwnershipProperty(t *testing.T) {
	pages := make([]uint64, 6)
	for i := range pages {
		pages[i] = mem.PageIndex(mem.HeapBase) + uint64(i)
	}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			w := newPageWorld()
			cold, moved := 0, 0
			for step := 0; step < 3000; step++ {
				node := rng.Intn(len(w.p.mems))
				pg := pages[rng.Intn(len(pages))]
				base := pg << mem.PageShift
				what := "store"
				switch r := rng.Intn(100); {
				case r < 55:
					write := rng.Intn(2) == 0
					st := w.p.Space.StateOf(node, pg)
					if st == dsm.Exclusive || !write && st == dsm.Shared {
						continue // the guest would not have faulted
					}
					what = fmt.Sprintf("fault write=%v", write)
					act, err := w.fault(node, pg, write)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if act.Cold {
						cold++
						if *w.p.mems[node].Page(base) != (mem.Page{}) {
							t.Fatalf("step %d: cold fault on node %d page %#x handed out a dirty frame", step, node, pg)
						}
					}
					if act.TransferFrom >= 0 && act.Grant == dsm.Exclusive {
						moved++
					}
				case r < 90:
					m := w.p.mems[node]
					if m == nil || !m.Writable(base) {
						continue
					}
					off, v := uint64(rng.Intn(mem.PageSize/8))*8, rng.Uint64()
					if err := m.WriteU64(base+off, v); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for i := uint64(0); i < 8; i++ {
						w.ref[node].pages[pg][off+i] = byte(v >> (8 * i))
					}
				case r < 95:
					what = "sweep"
					w.sweep(node)
				default:
					what = "eager move"
					w.eagerMove(node)
				}
				if err := w.check(pages); err != nil {
					t.Fatalf("step %d (%s, node %d, page %#x): %v", step, what, node, pg, err)
				}
			}
			if cold < 10 || moved < 100 {
				t.Fatalf("walk too tame: %d cold faults, %d exclusive transfers", cold, moved)
			}
		})
	}
}

// pingPong builds two kernels and one page that has already bounced between
// them, and returns a function that bounces it once more each way.
func pingPong(tb testing.TB) func() {
	cl := NewCluster([]isa.Arch{isa.X86, isa.ARM64}, DefaultInterconnect())
	p := &Process{Pid: 1, Space: dsm.NewSpace(2), mems: make([]*mem.Memory, 2)}
	bounce := func() {
		for node, k := range cl.Kernels {
			if _, _, err := k.resolveFault(p, mem.HeapBase, true, 0); err != nil {
				tb.Fatal(err)
			}
			if err := p.mems[node].WriteU64(mem.HeapBase, uint64(node)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	bounce()
	return bounce
}

// An exclusive transfer hands the frame over: in steady state the hDSM's
// worst case — one page written alternately by two kernels — allocates
// nothing, directory, memories and interconnect model included.
func TestPageTransferDoesNotAllocate(t *testing.T) {
	bounce := pingPong(t)
	if n := testing.AllocsPerRun(100, bounce); n != 0 {
		t.Fatalf("exclusive ping-pong: %v allocs per round trip, want 0", n)
	}
}

// BenchmarkPageTransfer times one exclusive page transfer through
// resolveFault (two per ping-pong round).
func BenchmarkPageTransfer(b *testing.B) {
	bounce := pingPong(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 2 {
		bounce()
	}
}

// cstringWorld is a pageWorld whose node 0 holds path, NUL-terminated, at
// addr, across a page boundary; node 1 holds a read-only copy of the first
// page only.
func cstringWorld(t *testing.T, addr uint64, path string) *pageWorld {
	t.Helper()
	w := newPageWorld()
	first, second := mem.PageBase(addr), mem.PageBase(addr+uint64(len(path)))
	for _, base := range []uint64{first, second} {
		if _, _, err := w.cl.Kernels[0].resolveFault(w.p, base, true, 0); err != nil {
			t.Fatal(err)
		}
	}
	w.p.mems[0].WriteBytes(addr, append([]byte(path), 0))
	if _, _, err := w.cl.Kernels[1].resolveFault(w.p, first, false, 0); err != nil {
		t.Fatal(err)
	}
	return w
}

// ReadCString reads a path the way SysOpen does, resolving the fault on the
// page it runs into: the same string at the same DSM latency as a byte-wise
// reference through ReadBytes, in at most two allocations — the string and
// the frame the fault brings in.
func TestReadCStringAcrossAFault(t *testing.T) {
	const path = "/data/input-across-a-page-edge.txt"
	addr := mem.HeapBase + 2*mem.PageSize - 9

	ref := cstringWorld(t, addr, path)
	refKM := &kmem{k: ref.cl.Kernels[1], p: ref.p}
	var b []byte
	for i := uint64(0); ; i++ {
		c, err := refKM.ReadBytes(addr+i, 1)
		if err != nil {
			t.Fatal(err)
		}
		if c[0] == 0 {
			break
		}
		b = append(b, c[0])
	}

	w := cstringWorld(t, addr, path)
	if w.p.mems[1].Present(addr + 9) {
		t.Fatal("the second page is already resident on the reading node")
	}
	km := &kmem{k: w.cl.Kernels[1], p: w.p}
	var got string
	var err error
	calls := 0
	allocs := testing.AllocsPerRun(1, func() {
		// AllocsPerRun warms up with one call first: the fault must be
		// taken in the call it measures.
		if calls++; calls == 2 {
			got, err = km.ReadCString(addr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != path || got != string(b) {
		t.Fatalf("read %q, byte-wise reference %q, want %q", got, b, path)
	}
	if km.Lat != refKM.Lat || km.Lat == 0 {
		t.Fatalf("DSM latency %g, byte-wise reference %g (want equal and non-zero)", km.Lat, refKM.Lat)
	}
	if allocs > 2 {
		t.Fatalf("%v allocations, want at most 2", allocs)
	}
}
