package ir_test

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	. "heterodc/internal/ir"
)

// The hand-built modules below are shared with interp_test.go, which runs
// every well-formed one on both interpreters and the malformed ones on the
// decoded interpreter alone.

// buildAdder returns a module with add(a,b) = a+b and main = add(2,3).
func buildAdder(t testing.TB) *Module {
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

// buildMissingTerminator: bad's only block ends without a terminator.
func buildMissingTerminator(t testing.TB) *Module {
	m := NewModule("t")
	f := &Func{Name: "bad", Ret: Void}
	f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{
		{Kind: KConst, Dst: f.NewVReg(I64), Imm: 1, A: NoV, B: NoV, C: NoV},
	}}}
	f.Finish()
	if err := m.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestVerifyRejectsMissingTerminator(t *testing.T) {
	m := buildMissingTerminator(t)
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "terminator") {
		t.Fatalf("expected terminator error, got %v", err)
	}
}

// buildUnknownCallee: main calls a function the module does not define.
func buildUnknownCallee(t testing.TB) *Module {
	m := NewModule("t")
	b := NewFunc("main", I64)
	b.Call(I64, "nonexistent")
	b.Ret(b.Const(0))
	if err := m.AddFunc(b.Done()); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestVerifyRejectsUnknownCallee(t *testing.T) {
	m := buildUnknownCallee(t)
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "unknown callee") {
		t.Fatalf("expected unknown-callee error, got %v", err)
	}
}

// buildArgCountMismatch: main2 calls add(a, b) with no arguments.
func buildArgCountMismatch(t testing.TB) *Module {
	m := buildAdder(t)
	b := NewFunc("main2", I64)
	b.Call(I64, "add")
	b.Ret(b.Const(0))
	if err := m.AddFunc(b.Done()); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestVerifyRejectsArgCountMismatch(t *testing.T) {
	m := buildArgCountMismatch(t)
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "args") {
		t.Fatalf("expected arg-count error, got %v", err)
	}
}

// buildFloatIntMix: main adds two float registers with an integer add.
func buildFloatIntMix(t testing.TB) *Module {
	m := NewModule("t")
	b := NewFunc("main", I64)
	f := b.FConst(1.5)
	b.Bin(Add, f, f)
	b.Ret(b.Const(0))
	if err := m.AddFunc(b.Done()); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestVerifyRejectsFloatIntMix(t *testing.T) {
	m := buildFloatIntMix(t)
	if err := m.Verify(); err == nil {
		t.Fatal("expected type error for int add on floats")
	}
}

// buildBadBranchTarget: main branches to a block that does not exist.
func buildBadBranchTarget(t testing.TB) *Module {
	m := NewModule("t")
	b := NewFunc("main", Void)
	b.Br(99)
	if err := m.AddFunc(b.Done()); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestVerifyRejectsBadBranchTarget(t *testing.T) {
	m := buildBadBranchTarget(t)
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "target") {
		t.Fatalf("expected branch-target error, got %v", err)
	}
}

// buildUnassignedCallSites: main3's call site has no ID, as if Finish had
// been skipped.
func buildUnassignedCallSites(t testing.TB) *Module {
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
	return m
}

func TestVerifyRejectsUnassignedCallSites(t *testing.T) {
	m := buildUnassignedCallSites(t)
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

// buildCallSites: caller makes two calls and a gettime syscall.
func buildCallSites(t testing.TB) *Module {
	m := buildAdder(t)
	b := NewFunc("caller", I64)
	b.Call(I64, "add", b.Const(1), b.Const(2))
	b.Call(I64, "add", b.Const(3), b.Const(4))
	b.Syscall(4)
	b.Ret(b.Const(0))
	if err := m.AddFunc(b.Done()); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFinishAssignsSequentialCallSiteIDs(t *testing.T) {
	f := buildCallSites(t).Func("caller")
	var ids []int32
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

// buildLoop: main sums 0..9 in a loop.
func buildLoop(t testing.TB) *Module {
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
	return m
}

func TestInterpLoop(t *testing.T) {
	ip := NewInterp(buildLoop(t))
	v, err := ip.Run("main")
	if err != nil || v != 45 {
		t.Fatalf("sum = %d, err %v", v, err)
	}
}

// buildGlobals: main reads a global's first byte and stores and loads a
// word beside it.
func buildGlobals(t testing.TB) *Module {
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
	return m
}

func TestInterpGlobalsAndMemory(t *testing.T) {
	ip := NewInterp(buildGlobals(t))
	v, err := ip.Run("main")
	if err != nil || v != 84 {
		t.Fatalf("got %d err %v", v, err)
	}
}

// buildDivByZero: main divides by zero.
func buildDivByZero(t testing.TB) *Module {
	m := NewModule("t")
	b := NewFunc("main", I64)
	b.Ret(b.Bin(Div, b.Const(1), b.Const(0)))
	if err := m.AddFunc(b.Done()); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestInterpDivByZeroTraps(t *testing.T) {
	ip := NewInterp(buildDivByZero(t))
	if _, err := ip.Run("main"); err == nil {
		t.Fatal("expected division-by-zero error")
	}
}

// buildExit: main exits with code 7 before its return.
func buildExit(t testing.TB) *Module {
	m := NewModule("t")
	b := NewFunc("main", I64)
	b.Syscall(1, b.Const(7))
	b.Ret(b.Const(0))
	if err := m.AddFunc(b.Done()); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestInterpExitSyscall(t *testing.T) {
	ip := NewInterp(buildExit(t))
	v, err := ip.Run("main")
	if err != nil || v != 7 {
		t.Fatalf("exit code %d err %v", v, err)
	}
}

// buildSpin: main branches to itself forever.
func buildSpin(t testing.TB) *Module {
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
	return m
}

func TestInterpStepLimit(t *testing.T) {
	ip := NewInterp(buildSpin(t))
	ip.MaxSteps = 1000
	if _, err := ip.Run("main"); err == nil {
		t.Fatal("infinite loop must hit the step limit")
	}
}

// Property: the interpreter's integer operators agree with Go's semantics
// on safe operands.
func TestPropertyEvalBin(t *testing.T) {
	m := NewModule("t")
	for _, op := range []BinOp{Add, Xor, Div, Shl} {
		b := NewFunc(op.String(), I64, Param{Name: "a", Type: I64}, Param{Name: "b", Type: I64})
		b.Ret(b.Bin(op, b.Param(0), b.Param(1)))
		if err := m.AddFunc(b.Done()); err != nil {
			t.Fatal(err)
		}
	}
	ip := NewInterp(m)
	evalBin := func(op BinOp, a, b int64) (int64, error) { return ip.Run(op.String(), a, b) }
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

// TestIRInstrStaysPacked: the passes copy instructions block by block and
// the module holds one per IR operation, so Instr's size is what their
// bytes scale with. The operator enums are bytes and the block, slot and
// call-site indices int32s; a field that widens shows here (152 bytes when
// every one was an int).
func TestIRInstrStaysPacked(t *testing.T) {
	if size := unsafe.Sizeof(Instr{}); size > 112 {
		t.Errorf("ir.Instr is %d bytes, at most 112", size)
	}
}
