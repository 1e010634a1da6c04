package xform_test

import (
	"strings"
	"testing"

	"heterodc/internal/compiler"
	"heterodc/internal/isa"
	"heterodc/internal/link"
	"heterodc/internal/mem"
	"heterodc/internal/minic"
	"heterodc/internal/xform"
)

// fakeMem is an always-present memory for constructing synthetic stacks.
type fakeMem struct{ m *mem.Memory }

func newFakeMem() *fakeMem { return &fakeMem{m: mem.NewMemory()} }

func (f *fakeMem) ReadU64(addr uint64) (uint64, error) {
	f.m.EnsurePage(addr)
	f.m.EnsurePage(addr + 7)
	return f.m.ReadU64(addr)
}

func (f *fakeMem) WriteU64(addr uint64, v uint64) error {
	f.m.EnsurePage(addr)
	f.m.EnsurePage(addr + 7)
	return f.m.WriteU64(addr, v)
}

func buildImage(t *testing.T) *link.Image {
	t.Helper()
	m, err := minic.CompileToIR("t", minic.Source{Name: "t.c", Code: `
long work(long n) {
	long buf[2];
	buf[0] = n;
	migrate(1);
	return buf[0] + n;
}
long main(void){ return work(5); }
`})
	if err != nil {
		t.Fatal(err)
	}
	art, err := compiler.Compile(m, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	img, err := link.Link("t", art, link.Options{Aligned: true})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func stackBounds() (srcLo, srcHi, dstLo, dstHi uint64) {
	lo, _ := mem.ThreadStackWindow(0)
	return lo, lo + mem.StackHalf, lo + mem.StackHalf, lo + 2*mem.StackHalf
}

func TestTransformRejectsUnmappedPC(t *testing.T) {
	img := buildImage(t)
	sl, sh, dl, dh := stackBounds()
	in := &xform.Input{
		SrcProg: img.Prog(isa.X86), DstProg: img.Prog(isa.ARM64),
		Mem: newFakeMem(), PC: 0x12,
		SrcStackLo: sl, SrcStackHi: sh, DstStackLo: dl, DstStackHi: dh,
	}
	_, err := xform.Transform(in)
	if err == nil || !strings.Contains(err.Error(), "not in any function") {
		t.Fatalf("expected unmapped-pc error, got %v", err)
	}
}

func TestTransformRejectsCorruptFrameChain(t *testing.T) {
	img := buildImage(t)
	sl, sh, dl, dh := stackBounds()
	fm := newFakeMem()
	// Fake a self-referential frame chain inside __migrate_check: the FP
	// points at a record whose caller FP loops back to itself with a bogus
	// non-zero return address that maps to no call site.
	fp := sl + 0x1000
	_ = fm.WriteU64(fp, fp)      // caller FP = self
	_ = fm.WriteU64(fp+8, 0x123) // wild return address
	mc := img.Prog(isa.X86).ByName["__migrate_check"]

	in := &xform.Input{
		SrcProg: img.Prog(isa.X86), DstProg: img.Prog(isa.ARM64),
		Mem: fm, PC: mc.Base,
		SrcStackLo: sl, SrcStackHi: sh, DstStackLo: dl, DstStackHi: dh,
	}
	in.Regs.I[isa.Describe(isa.X86).FP] = int64(fp)
	if _, err := xform.Transform(in); err == nil {
		t.Fatal("corrupt chain accepted")
	}
}

func TestTransformRejectsImmediateSentinel(t *testing.T) {
	// A frame chain that terminates before any application frame is a
	// defect (nothing to resume).
	img := buildImage(t)
	sl, sh, dl, dh := stackBounds()
	fm := newFakeMem()
	fp := sl + 0x1000
	_ = fm.WriteU64(fp, 0)
	_ = fm.WriteU64(fp+8, 0) // sentinel right away
	mc := img.Prog(isa.X86).ByName["__migrate_check"]
	in := &xform.Input{
		SrcProg: img.Prog(isa.X86), DstProg: img.Prog(isa.ARM64),
		Mem: fm, PC: mc.Base,
		SrcStackLo: sl, SrcStackHi: sh, DstStackLo: dl, DstStackHi: dh,
	}
	in.Regs.I[isa.Describe(isa.X86).FP] = int64(fp)
	_, err := xform.Transform(in)
	if err == nil || !strings.Contains(err.Error(), "no application frames") {
		t.Fatalf("expected no-frames error, got %v", err)
	}
}

// TestStatsReflectWork builds a real suspended state by running the full
// kernel migration path (covered elsewhere); here we validate that the
// latency model's inputs scale with the frame count by comparing two
// different call depths through the public kernel API.
func TestLatencyModelMonotonic(t *testing.T) {
	shallow := xform.Stats{Frames: 2, LiveValues: 2}
	deep := xform.Stats{Frames: 8, LiveValues: 30, AllocaBytes: 1024, RegWalks: 4}
	// The kernel's latency model is in kernel.XformLatency; its ordering is
	// asserted there. Here just sanity-check the Stats fields carry.
	if deep.Frames <= shallow.Frames {
		t.Fatal("bogus")
	}
}

// TestTransformRejectsAllocaCountMismatch: a destination frame with fewer
// alloca slots than the source's is a metadata defect that Transform
// reports, naming the function, where it used to index past the slots.
func TestTransformRejectsAllocaCountMismatch(t *testing.T) {
	img := buildImage(t)
	sl, sh, dl, dh := stackBounds()
	src, dst := img.Prog(isa.X86), img.Prog(isa.ARM64)
	work := src.ByName["work"]
	if len(work.Info.AllocaOffsets) == 0 || len(work.Info.CallSites) == 0 {
		t.Fatalf("work has %d alloca slots and %d call sites", len(work.Info.AllocaOffsets), len(work.Info.CallSites))
	}
	// Suspend inside __migrate_check, called from work's first call site;
	// work's own record ends the chain.
	transform := func() error {
		fm := newFakeMem()
		fp, workFP := sl+0x1000, sl+0x2000
		_ = fm.WriteU64(fp, workFP)
		_ = fm.WriteU64(fp+8, work.Info.CallSites[0].RetPC)
		in := &xform.Input{
			SrcProg: src, DstProg: dst, Mem: fm, PC: src.ByName["__migrate_check"].Base,
			SrcStackLo: sl, SrcStackHi: sh, DstStackLo: dl, DstStackHi: dh,
		}
		in.Regs.I[isa.Describe(isa.X86).FP] = int64(fp)
		_, err := xform.Transform(in)
		return err
	}
	if err := transform(); err != nil {
		t.Fatalf("the intact image: %v", err)
	}
	dfi := dst.SMap.Funcs["work"]
	dfi.AllocaOffsets = dfi.AllocaOffsets[:len(dfi.AllocaOffsets)-1]
	err := transform()
	if err == nil || !strings.Contains(err.Error(), "work") || !strings.Contains(err.Error(), "alloca") {
		t.Fatalf("one destination alloca slot removed: err = %v", err)
	}
}
