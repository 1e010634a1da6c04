package compiler

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"heterodc/internal/ir"
	"heterodc/internal/isa"
	"heterodc/internal/minic"
)

// compileSrc builds a module from mini-C and compiles it with opts.
func compileSrc(t *testing.T, src string, opts Options) *Artifact {
	t.Helper()
	m, err := minic.CompileToIR("t", minic.Source{Name: "t.c", Code: src})
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	art, err := Compile(m, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return art
}

const simpleSrc = `
long helper(long a, long b, double f) {
	long arr[4];
	arr[0] = a;
	arr[1] = b;
	double acc = f;
	for (long i = 0; i < 4; i++) acc += (double)arr[i % 2];
	return a + b + (long)acc;
}
long main(void) { return helper(1, 2, 3.5); }
`

func TestCompileProducesBothISAs(t *testing.T) {
	art := compileSrc(t, simpleSrc, DefaultOptions())
	for _, arch := range isa.Arches {
		if len(art.Funcs[arch]) == 0 {
			t.Fatalf("%s: no functions", arch)
		}
		af := art.FuncFor(arch, "helper")
		if af == nil {
			t.Fatalf("%s: helper missing", arch)
		}
		if af.Size <= 0 || len(af.Code) == 0 {
			t.Fatalf("%s: empty code", arch)
		}
	}
}

func TestPerISAFunctionOrderMatches(t *testing.T) {
	art := compileSrc(t, simpleSrc, DefaultOptions())
	for i := range art.Funcs[isa.X86] {
		if art.Funcs[isa.X86][i].Name != art.Funcs[isa.ARM64][i].Name {
			t.Fatalf("function order diverges at %d: %s vs %s",
				i, art.Funcs[isa.X86][i].Name, art.Funcs[isa.ARM64][i].Name)
		}
	}
}

// TestStackmapLiveSetsAgreeAcrossISAs is the cross-ISA correlation
// invariant the transformation depends on: for every call site, both
// backends record exactly the same live vreg set with the same types.
func TestStackmapLiveSetsAgreeAcrossISAs(t *testing.T) {
	art := compileSrc(t, simpleSrc, DefaultOptions())
	for i, fx := range art.Funcs[isa.X86] {
		fa := art.Funcs[isa.ARM64][i]
		if len(fx.Info.CallSites) != len(fa.Info.CallSites) {
			t.Fatalf("%s: call-site counts differ (%d vs %d)",
				fx.Name, len(fx.Info.CallSites), len(fa.Info.CallSites))
		}
		for i := range fx.Info.CallSites {
			csx := &fx.Info.CallSites[i]
			id := csx.ID
			csa := fa.Info.Site(id)
			if csa == nil {
				t.Fatalf("%s: site %d missing on arm", fx.Name, id)
			}
			if len(csx.Live) != len(csa.Live) {
				t.Fatalf("%s site %d: live counts differ (%d vs %d)",
					fx.Name, id, len(csx.Live), len(csa.Live))
			}
			for j := range csx.Live {
				if csx.Live[j].VReg != csa.Live[j].VReg || csx.Live[j].Type != csa.Live[j].Type {
					t.Fatalf("%s site %d: live value %d differs", fx.Name, id, j)
				}
			}
		}
	}
}

func TestAllocaMetadataConsistent(t *testing.T) {
	art := compileSrc(t, simpleSrc, DefaultOptions())
	for i, fx := range art.Funcs[isa.X86] {
		fa := art.Funcs[isa.ARM64][i]
		if len(fx.Info.AllocaOffsets) != len(fa.Info.AllocaOffsets) {
			t.Fatalf("%s: alloca counts differ", fx.Name)
		}
		for j := range fx.Info.AllocaSizes {
			if fx.Info.AllocaSizes[j] != fa.Info.AllocaSizes[j] {
				t.Fatalf("%s: alloca %d sizes differ", fx.Name, j)
			}
			// Offsets are per-ISA but must lie inside the frame.
			for _, info := range []*AsmFunc{fx, fa} {
				off := info.Info.AllocaOffsets[j]
				if off >= 0 || -off > info.Info.FrameSize {
					t.Fatalf("%s (%s): alloca %d offset %d outside frame %d",
						info.Name, info.Arch, j, off, info.Info.FrameSize)
				}
			}
		}
	}
}

func TestSaveSlotsInsideFrameAndDistinct(t *testing.T) {
	art := compileSrc(t, simpleSrc, DefaultOptions())
	for _, arch := range isa.Arches {
		for _, af := range art.Funcs[arch] {
			seen := map[int64]bool{}
			for _, s := range af.Info.Saves {
				if s.Off >= 0 || -s.Off > af.Info.FrameSize {
					t.Fatalf("%s (%s): save slot %d outside frame %d",
						af.Name, arch, s.Off, af.Info.FrameSize)
				}
				if seen[s.Off] {
					t.Fatalf("%s (%s): duplicate save slot %d", af.Name, arch, s.Off)
				}
				seen[s.Off] = true
			}
		}
	}
}

func TestFrameSizesAligned(t *testing.T) {
	art := compileSrc(t, simpleSrc, DefaultOptions())
	for _, arch := range isa.Arches {
		for _, af := range art.Funcs[arch] {
			if af.Name == MigrateCheckFunc {
				continue // hand-written, frameless
			}
			if af.Info.FrameSize%16 != 0 {
				t.Errorf("%s (%s): frame size %d not 16-aligned", af.Name, arch, af.Info.FrameSize)
			}
		}
	}
}

func TestMigrationPointsInserted(t *testing.T) {
	m, err := minic.CompileToIR("t", minic.Source{Name: "t.c", Code: simpleSrc})
	if err != nil {
		t.Fatal(err)
	}
	if err := AddRuntime(m); err != nil {
		t.Fatal(err)
	}
	countCalls := func(f *ir.Func) int {
		n := 0
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				if blk.Instrs[i].Kind == ir.KCall && blk.Instrs[i].Sym == MigrateCheckFunc {
					n++
				}
			}
		}
		return n
	}
	before := countCalls(m.Func("main"))
	if err := InsertMigrationPoints(m, DefaultMigrationOptions()); err != nil {
		t.Fatal(err)
	}
	after := countCalls(m.Func("main"))
	if after <= before {
		t.Errorf("no migration points inserted in main (%d -> %d)", before, after)
	}
	// NoMigrate functions stay clean.
	if n := countCalls(m.Func(MigrateCheckFunc)); n != 0 {
		t.Errorf("migration points inside __migrate_check: %d", n)
	}
}

func TestSmallLeafSkipsPoints(t *testing.T) {
	src := `
long tiny(long a) { return a * 2 + 1; }
long main(void){ long s = 0; for (long i = 0; i < 4; i++) s += tiny(i); return s; }
`
	m, err := minic.CompileToIR("t", minic.Source{Name: "t.c", Code: src})
	if err != nil {
		t.Fatal(err)
	}
	if err := AddRuntime(m); err != nil {
		t.Fatal(err)
	}
	if err := InsertMigrationPoints(m, DefaultMigrationOptions()); err != nil {
		t.Fatal(err)
	}
	for _, blk := range m.Func("tiny").Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Kind == ir.KCall && blk.Instrs[i].Sym == MigrateCheckFunc {
				t.Fatal("tiny leaf function received a migration point")
			}
		}
	}
}

func TestNoMigrationOptionOmitsRuntimeCalls(t *testing.T) {
	art := compileSrc(t, simpleSrc, Options{Migration: false})
	for _, af := range art.Funcs[isa.X86] {
		if af.Name == MigrateCheckFunc {
			continue
		}
		for i := range af.Code {
			if af.Code[i].Op == isa.OpCall && af.Code[i].Sym == MigrateCheckFunc {
				t.Fatalf("%s: migration call emitted despite Migration=false", af.Name)
			}
		}
	}
}

func TestRetAddrDisciplineInEmittedCode(t *testing.T) {
	art := compileSrc(t, simpleSrc, DefaultOptions())
	// x86 prologues push the frame pointer; arm prologues store the pair.
	hx := art.FuncFor(isa.X86, "helper")
	if hx.Code[0].Op != isa.OpPush {
		t.Errorf("x86 prologue starts with %s, want push", hx.Code[0].Op)
	}
	ha := art.FuncFor(isa.ARM64, "helper")
	if ha.Code[0].Op != isa.OpAddI || ha.Code[0].Rd != isa.Describe(isa.ARM64).SP {
		t.Errorf("arm prologue starts with %s", ha.Code[0].String())
	}
	for _, in := range ha.Code {
		if in.Op == isa.OpPush || in.Op == isa.OpPop {
			t.Error("arm code must not use push/pop")
		}
	}
}

func TestLivenessWeightsFavourLoopVars(t *testing.T) {
	src := `
long main(void) {
	long hot = 0;
	long cold = 3;
	for (long i = 0; i < 100; i++) {
		for (long j = 0; j < 100; j++) {
			hot += i * j;
		}
	}
	return hot + cold;
}
`
	m, err := minic.CompileToIR("t", minic.Source{Name: "t.c", Code: src})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Funcs {
		f.Finish()
	}
	f := m.Func("main")
	var lv liveness
	lv.compute(f)
	// The inner accumulator must outweigh straight-line temporaries: the
	// maximum weight must exceed the minimum used weight by the loop factor.
	var max, min int64 = 0, 1 << 62
	for _, w := range lv.weight {
		if w > max {
			max = w
		}
		if w > 0 && w < min {
			min = w
		}
	}
	if max < min*8 {
		t.Errorf("loop weighting too flat: max %d min %d", max, min)
	}
}

func TestCompileRejectsBrokenIR(t *testing.T) {
	m := ir.NewModule("bad")
	f := &ir.Func{Name: "main", Ret: ir.I64}
	f.Blocks = []*ir.Block{{Name: "entry"}} // empty block
	if err := m.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(m, DefaultOptions()); err == nil {
		t.Fatal("expected verify error")
	}
}

// isa.Instr holds branch targets and call-site IDs as int32: a function
// longer than that can index is an error, not a wrapped target.
func TestLowerRejectsFunctionPastBranchRange(t *testing.T) {
	saved := maxCodeIndex
	maxCodeIndex = 8
	t.Cleanup(func() { maxCodeIndex = saved })
	m, err := minic.CompileToIR("t", minic.Source{Name: "t.c", Code: simpleSrc})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compile(m, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "more than a branch target can index (8)") {
		t.Fatalf("Compile with an 8-instruction limit: err = %v", err)
	}
}

// ir.Instr holds call-site IDs as int32 too, so an ID past int32 reaches
// the lowerer wrapped negative, as Func.Finish's counter would wrap it.
func TestLowerRejectsCallSiteIDPastInt32(t *testing.T) {
	m, err := minic.CompileToIR("t", minic.Source{Name: "t.c", Code: simpleSrc})
	if err != nil {
		t.Fatal(err)
	}
	art, err := Compile(m, Options{NoInline: true})
	if err != nil {
		t.Fatal(err)
	}
	f := art.Module.Func("main")
	var call *ir.Instr
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Kind == ir.KCall {
				call = &b.Instrs[i]
			}
		}
	}
	if call == nil {
		t.Fatal("main has no call")
	}
	pastInt32 := int64(math.MaxInt32) + 1
	for _, id := range []int32{int32(pastInt32), -1} {
		call.CallSiteID = id
		lo := newLowerer(art.Module)
		lo.begin(f)
		_, err := lo.lowerFunc(f, isa.Describe(isa.X86))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("call site ID %d outside", id)) {
			t.Errorf("call site ID %d: err = %v", id, err)
		}
	}
}
