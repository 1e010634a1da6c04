package ir

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// buildAdder returns a module with add(a,b) = a+b and main = add(2,3).
func buildAdder(t *testing.T) *Module {
	t.Helper()
	m := NewModule("t")
	b := NewFunc("add", I64, Param{Name: "a", Type: I64}, Param{Name: "b", Type: I64})
	b.Ret(b.Bin(Add, b.Param(0), b.Param(1)))
	if err := m.AddFunc(b.Done()); err != nil {
		t.Fatal(err)
	}
	mb := NewFunc("main", I64)
	mb.Ret(mb.Call(I64, "add", mb.Const(2), mb.Const(3)))
	if err := m.AddFunc(mb.Done()); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestVerifyAcceptsValidModule(t *testing.T) {
	m := buildAdder(t)
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestVerifyRejectsMissingTerminator(t *testing.T) {
	m := NewModule("t")
	f := &Func{Name: "bad", Ret: Void}
	f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{
		{Kind: KConst, Dst: f.NewVReg(I64), Imm: 1, A: NoV, B: NoV, C: NoV},
	}}}
	f.Finish()
	if err := m.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "terminator") {
		t.Fatalf("expected terminator error, got %v", err)
	}
}

func TestVerifyRejectsUnknownCallee(t *testing.T) {
	m := NewModule("t")
	b := NewFunc("main", I64)
	b.Call(I64, "nonexistent")
	b.Ret(b.Const(0))
	if err := m.AddFunc(b.Done()); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "unknown callee") {
		t.Fatalf("expected unknown-callee error, got %v", err)
	}
}

func TestVerifyRejectsArgCountMismatch(t *testing.T) {
	m := buildAdder(t)
	b := NewFunc("main2", I64)
	b.Call(I64, "add")
	b.Ret(b.Const(0))
	if err := m.AddFunc(b.Done()); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "args") {
		t.Fatalf("expected arg-count error, got %v", err)
	}
}

func TestVerifyRejectsFloatIntMix(t *testing.T) {
	m := NewModule("t")
	b := NewFunc("main", I64)
	f := b.FConst(1.5)
	b.Bin(Add, f, f)
	b.Ret(b.Const(0))
	if err := m.AddFunc(b.Done()); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err == nil {
		t.Fatal("expected type error for int add on floats")
	}
}

func TestVerifyRejectsBadBranchTarget(t *testing.T) {
	m := NewModule("t")
	b := NewFunc("main", Void)
	b.Br(99)
	if err := m.AddFunc(b.Done()); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "target") {
		t.Fatalf("expected branch-target error, got %v", err)
	}
}

func TestVerifyRejectsUnassignedCallSites(t *testing.T) {
	m := buildAdder(t)
	b := NewFunc("main3", I64)
	r := b.Call(I64, "add", b.Const(1), b.Const(2))
	b.Ret(r)
	f := b.Done()
	// Undo Finish's numbering, as if it had been skipped.
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			blk.Instrs[i].CallSiteID = 0
		}
	}
	if err := m.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "call site id") {
		t.Fatalf("expected call-site-id error, got %v", err)
	}
}

func TestDuplicateSymbolsRejected(t *testing.T) {
	m := buildAdder(t)
	b := NewFunc("add", I64)
	b.Ret(b.Const(0))
	if err := m.AddFunc(b.Done()); err == nil {
		t.Error("duplicate function accepted")
	}
	if err := m.AddGlobal(&Global{Name: "add", Size: 8}); err == nil {
		t.Error("global colliding with function accepted")
	}
	if err := m.AddGlobal(&Global{Name: "g", Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddGlobal(&Global{Name: "g", Size: 8}); err == nil {
		t.Error("duplicate global accepted")
	}
}

func TestFinishAssignsSequentialCallSiteIDs(t *testing.T) {
	m := buildAdder(t)
	b := NewFunc("caller", I64)
	b.Call(I64, "add", b.Const(1), b.Const(2))
	b.Call(I64, "add", b.Const(3), b.Const(4))
	b.Syscall(4)
	b.Ret(b.Const(0))
	f := b.Done()
	if err := m.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].IsCallLike() {
				ids = append(ids, blk.Instrs[i].CallSiteID)
			}
		}
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("call site ids %v", ids)
	}
	if f.NumCallSites != 3 {
		t.Fatalf("NumCallSites %d", f.NumCallSites)
	}
}

func TestModuleString(t *testing.T) {
	m := buildAdder(t)
	s := m.String()
	for _, frag := range []string{"func add", "func main", "ret", "call add"} {
		if !strings.Contains(s, frag) {
			t.Errorf("module dump missing %q:\n%s", frag, s)
		}
	}
}

// --- interpreter ---

func TestInterpArithAndCalls(t *testing.T) {
	m := buildAdder(t)
	ip := NewInterp(m)
	v, err := ip.Run("main")
	if err != nil || v != 5 {
		t.Fatalf("main = %d, err %v", v, err)
	}
}

func TestInterpLoop(t *testing.T) {
	m := NewModule("t")
	b := NewFunc("main", I64)
	sum := b.Const(0)
	i := b.Const(0)
	head := b.NewBlock("head")
	b.SetBlock(0)
	b.Br(head)
	b.SetBlock(head)
	c := b.Cmp(Lt, i, b.Const(10))
	hEnd := b.Block()
	body := b.NewBlock("body")
	b.MovTo(sum, b.Bin(Add, sum, i))
	b.MovTo(i, b.BinImm(Add, i, 1))
	b.Br(head)
	exit := b.NewBlock("exit")
	b.Ret(sum)
	b.SetBlock(hEnd)
	b.CondBr(c, body, exit)
	if err := m.AddFunc(b.Done()); err != nil {
		t.Fatal(err)
	}
	ip := NewInterp(m)
	v, err := ip.Run("main")
	if err != nil || v != 45 {
		t.Fatalf("sum = %d, err %v", v, err)
	}
}

func TestInterpGlobalsAndMemory(t *testing.T) {
	m := NewModule("t")
	if err := m.AddGlobal(&Global{Name: "g", Size: 16, Init: []byte{42}}); err != nil {
		t.Fatal(err)
	}
	b := NewFunc("main", I64)
	p := b.GlobalAddr("g", 0)
	v0 := b.LoadB(p, 0)
	b.Store(p, 8, b.BinImm(Mul, v0, 2))
	b.Ret(b.Load(I64, p, 8))
	if err := m.AddFunc(b.Done()); err != nil {
		t.Fatal(err)
	}
	ip := NewInterp(m)
	v, err := ip.Run("main")
	if err != nil || v != 84 {
		t.Fatalf("got %d err %v", v, err)
	}
}

func TestInterpDivByZeroTraps(t *testing.T) {
	m := NewModule("t")
	b := NewFunc("main", I64)
	b.Ret(b.Bin(Div, b.Const(1), b.Const(0)))
	if err := m.AddFunc(b.Done()); err != nil {
		t.Fatal(err)
	}
	ip := NewInterp(m)
	if _, err := ip.Run("main"); err == nil {
		t.Fatal("expected division-by-zero error")
	}
}

func TestInterpExitSyscall(t *testing.T) {
	m := NewModule("t")
	b := NewFunc("main", I64)
	b.Syscall(1, b.Const(7))
	b.Ret(b.Const(0))
	if err := m.AddFunc(b.Done()); err != nil {
		t.Fatal(err)
	}
	ip := NewInterp(m)
	v, err := ip.Run("main")
	if err != nil || v != 7 {
		t.Fatalf("exit code %d err %v", v, err)
	}
}

func TestInterpStepLimit(t *testing.T) {
	m := NewModule("t")
	b := NewFunc("main", I64)
	loop := b.NewBlock("loop")
	b.SetBlock(0)
	b.Br(loop)
	b.SetBlock(loop)
	b.Br(loop)
	if err := m.AddFunc(b.Done()); err != nil {
		t.Fatal(err)
	}
	ip := NewInterp(m)
	ip.MaxSteps = 1000
	if _, err := ip.Run("main"); err == nil {
		t.Fatal("infinite loop must hit the step limit")
	}
}

// Property: evalBin agrees with Go's semantics on safe operands.
func TestPropertyEvalBin(t *testing.T) {
	err := quick.Check(func(a, b int64) bool {
		if v, err := evalBin(Add, a, b); err != nil || v != a+b {
			return false
		}
		if v, err := evalBin(Xor, a, b); err != nil || v != a^b {
			return false
		}
		d := b | 1
		want := a / d
		if a == math.MinInt64 && d == -1 {
			want = math.MinInt64
		}
		if v, err := evalBin(Div, a, d); err != nil || v != want {
			return false
		}
		if v, err := evalBin(Shl, a, b); err != nil || v != a<<(uint64(b)&63) {
			return false
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// Property: f2i saturates rather than producing platform-defined values.
func TestPropertyF2ISaturates(t *testing.T) {
	if f2i(math.NaN()) != 0 {
		t.Error("NaN must map to 0")
	}
	if f2i(math.Inf(1)) != math.MaxInt64 || f2i(math.Inf(-1)) != math.MinInt64 {
		t.Error("infinities must saturate")
	}
	err := quick.Check(func(f float64) bool {
		v := f2i(f)
		if math.IsNaN(f) {
			return v == 0
		}
		if f >= math.MaxInt64 {
			return v == math.MaxInt64
		}
		if f <= math.MinInt64 {
			return v == math.MinInt64
		}
		return v == int64(f)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestBuilderLaysOutInterleavedBlocks: emission may switch between blocks
// in any order; Done gives each block its instructions in emission order,
// after any it already held, and Terminated follows the current block.
func TestBuilderLaysOutInterleavedBlocks(t *testing.T) {
	b := NewFunc("f", Void)
	b.Const(0)
	next := b.NewBlock("next")
	b.Const(10)
	b.SetBlock(0)
	if b.Terminated() {
		t.Error("entry terminated before its branch")
	}
	b.Const(1)
	b.Br(next)
	if !b.Terminated() {
		t.Error("entry not terminated after its branch")
	}
	b.SetBlock(next)
	b.Const(11)
	b.Ret(NoV)
	f := b.Done()
	want := [][]Kind{{KConst, KConst, KBr}, {KConst, KConst, KRet}}
	imms := [][]int64{{0, 1, 0}, {10, 11, 0}}
	for bi, blk := range f.Blocks {
		if len(blk.Instrs) != len(want[bi]) || cap(blk.Instrs) != len(blk.Instrs) {
			t.Fatalf("block %d: len %d cap %d, want len %d, cap = len", bi, len(blk.Instrs), cap(blk.Instrs), len(want[bi]))
		}
		for i, in := range blk.Instrs {
			if in.Kind != want[bi][i] || in.Imm != imms[bi][i] {
				t.Errorf("block %d instr %d: %s", bi, i, formatInstr(&in))
			}
		}
	}

	// A block held instructions before it was built into keeps them first.
	b = NewFunc("g", Void)
	b.F.Blocks[0].Instrs = []Instr{{Kind: KConst, Dst: b.F.NewVReg(I64), Imm: 7, A: NoV, B: NoV, C: NoV}}
	b.Ret(NoV)
	g := b.Done()
	if ins := g.Blocks[0].Instrs; len(ins) != 2 || ins[0].Imm != 7 || ins[1].Kind != KRet {
		t.Errorf("held instructions not kept in front: %v", g.String())
	}
}
