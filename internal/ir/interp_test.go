package ir_test

import (
	"fmt"
	"strings"
	"testing"

	. "heterodc/internal/ir"
	"heterodc/internal/mem"
	"heterodc/internal/minic"
	"heterodc/internal/npb"
)

// outcome is everything a run shows: what it returned and printed, the step
// count gettime would read after it, and its error text.
type outcome struct {
	ret   int64
	out   string
	steps int64
	err   string
}

func (o outcome) String() string {
	out := o.out
	if len(out) > 200 {
		out = out[:200] + "..."
	}
	return fmt.Sprintf("ret %d, steps %d, err %q, output %q", o.ret, o.steps, o.err, out)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// interpCase is a module and how to run it: its entry function and a step
// limit (0 keeps the default).
type interpCase struct {
	name     string
	build    func(testing.TB) *Module
	entry    string
	maxSteps int64
}

// runBoth runs c on a fresh reference interpreter and a fresh decoded one,
// returning the outcome of each.
func runBoth(t testing.TB, c interpCase) (ref, got outcome) {
	m := c.build(t)
	ri, ip := newRefInterp(m), NewInterp(m)
	if c.maxSteps > 0 {
		ri.MaxSteps, ip.MaxSteps = c.maxSteps, c.maxSteps
	}
	rv, rerr := ri.Run(c.entry)
	v, err := ip.Run(c.entry)
	return outcome{rv, string(ri.Output()), ri.steps, errText(rerr)},
		outcome{v, string(ip.Output()), ip.Steps(), errText(err)}
}

// npbCases are the nine single-threaded class-S NPB programs, through the
// mini-C front end.
func npbCases(t testing.TB) []interpCase {
	var cases []interpCase
	for _, b := range npb.All {
		name := fmt.Sprintf("%s.S.t1", b)
		src, err := npb.Source(b, npb.ClassS, 1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := minic.CompileToIR(name, src)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, interpCase{name: name, build: func(testing.TB) *Module { return m }, entry: "main"})
	}
	return cases
}

// TestInterpMatchesReference: on every program, the decoded interpreter
// returns, prints, counts and fails exactly as the instruction-at-a-time
// reference (refinterp_test.go) does.
func TestInterpMatchesReference(t *testing.T) {
	cases := []interpCase{
		{name: "adder", build: buildAdder, entry: "main"},
		{name: "loop", build: buildLoop, entry: "main"},
		{name: "globals", build: buildGlobals, entry: "main"},
		{name: "div-by-zero", build: buildDivByZero, entry: "main"},
		{name: "exit", build: buildExit, entry: "main"},
		{name: "spin", build: buildSpin, entry: "main", maxSteps: 1000},
		{name: "float-int-mix", build: buildFloatIntMix, entry: "main"},
		{name: "unassigned-call-sites", build: buildUnassignedCallSites, entry: "main3"},
		{name: "call-sites", build: buildCallSites, entry: "caller"},
	}
	cases = append(cases, errorPathCases...)
	cases = append(cases, npbCases(t)...)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if ref, got := runBoth(t, c); got != ref {
				t.Errorf("\n got %v\nwant %v", got, ref)
			}
		})
	}
}

// TestInterpRefusesAfterExit: once the program has called exit, Run returns
// an error and runs nothing — the step count and output stay as the exit
// left them. (The reference interpreter instead runs one instruction per
// activation and returns the old exit code.)
func TestInterpRefusesAfterExit(t *testing.T) {
	ip := NewInterp(buildExit(t))
	if v, err := ip.Run("main"); err != nil || v != 7 {
		t.Fatalf("first run: exit code %d, err %v", v, err)
	}
	steps := ip.Steps()
	for i := 0; i < 2; i++ {
		v, err := ip.Run("main")
		if err == nil || !strings.Contains(err.Error(), "already exited") {
			t.Fatalf("run %d after exit: ret %d, err %v, want a refusal", i+2, v, err)
		}
		if ip.Steps() != steps || len(ip.Output()) != 0 {
			t.Fatalf("run %d after exit ran something: steps %d (was %d), output %q", i+2, ip.Steps(), steps, ip.Output())
		}
	}
}

// module builds a module from a function per builder body; each body gets a
// fresh builder for the named function.
func module(t testing.TB, funcs ...func() *Func) *Module {
	m := NewModule("t")
	if err := m.AddGlobal(&Global{Name: "buf", Size: 64}); err != nil {
		t.Fatal(err)
	}
	for _, f := range funcs {
		if err := m.AddFunc(f()); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// leaf is leaf(x) = x + 1 with an alloca holding x.
func leaf() *Func {
	b := NewFunc("leaf", I64, Param{Name: "x", Type: I64})
	p := b.Alloca(16)
	b.Store(p, 8, b.Param(0))
	b.Ret(b.BinImm(Add, b.Load(I64, p, 8), 1))
	return b.Done()
}

// calls returns main, which calls leaf n times in a loop.
func calls(name string, n int64) func() *Func {
	return func() *Func {
		b := NewFunc(name, I64)
		i := b.Const(0)
		head := b.NewBlock("head")
		body := b.NewBlock("body")
		exit := b.NewBlock("exit")
		b.SetBlock(0)
		b.Br(head)
		b.SetBlock(head)
		b.CondBr(b.Cmp(Lt, i, b.Const(n)), body, exit)
		b.SetBlock(body)
		b.MovTo(i, b.Call(I64, "leaf", i))
		b.Br(head)
		b.SetBlock(exit)
		b.Ret(i)
		return b.Done()
	}
}

// fn builds a function whose body emit writes, ending in its return.
func fn(name string, ret Type, params []Param, emit func(b *Builder)) func() *Func {
	return func() *Func {
		b := NewFunc(name, ret, params...)
		emit(b)
		return b.Done()
	}
}

// writeBuf writes n bytes of the global buf to stdout.
func writeBuf(b *Builder, n int64) {
	b.Syscall(2, b.Const(1), b.GlobalAddr("buf", 0), b.Const(n))
}

var i64 = []Param{{Name: "x", Type: I64}}

// errorPathCases reach each of the interpreter's error paths, and the
// corners of calls, memory and syscalls whose results the error-free
// programs above do not show.
var errorPathCases = []interpCase{
	{name: "rem-by-zero", entry: "main", build: func(t testing.TB) *Module {
		return module(t, fn("main", I64, nil, func(b *Builder) { b.Ret(b.BinImm(Rem, b.Const(1), 0)) }))
	}},
	{name: "error-in-nested-call", entry: "main", build: func(t testing.TB) *Module {
		return module(t,
			fn("inner", I64, i64, func(b *Builder) {
				next := b.NewBlock("divide")
				b.SetBlock(0)
				b.Br(next)
				b.SetBlock(next)
				b.Ret(b.Bin(Div, b.Param(0), b.Const(0)))
			}),
			fn("outer", I64, i64, func(b *Builder) { b.Ret(b.Call(I64, "inner", b.Param(0))) }),
			fn("main", I64, nil, func(b *Builder) { b.Ret(b.Call(I64, "outer", b.Const(3))) }))
	}},
	{name: "step-limit-in-callee", entry: "main", maxSteps: 500, build: func(t testing.TB) *Module {
		return module(t,
			fn("spin", Void, nil, func(b *Builder) {
				loop := b.NewBlock("loop")
				b.SetBlock(0)
				b.Br(loop)
				b.SetBlock(loop)
				b.Br(loop)
			}),
			fn("main", I64, nil, func(b *Builder) { b.Call(Void, "spin"); b.Ret(b.Const(0)) }))
	}},
	{name: "call-depth", entry: "main", build: func(t testing.TB) *Module {
		return module(t,
			fn("rec", I64, i64, func(b *Builder) { b.Ret(b.Call(I64, "rec", b.BinImm(Add, b.Param(0), 1))) }),
			fn("main", I64, nil, func(b *Builder) { b.Ret(b.Call(I64, "rec", b.Const(0))) }))
	}},
	{name: "missing-symbol", entry: "main", build: func(t testing.TB) *Module {
		return module(t, fn("main", I64, nil, func(b *Builder) { b.Ret(b.GlobalAddr("nowhere", 0)) }))
	}},
	{name: "bad-indirect-call", entry: "main", build: func(t testing.TB) *Module {
		return module(t, leaf, fn("main", I64, nil, func(b *Builder) {
			fp := b.BinImm(Add, b.GlobalAddr("leaf", 0), 8)
			b.Ret(b.CallInd(I64, fp, b.Const(1)))
		}))
	}},
	{name: "indirect-arity", entry: "main", build: func(t testing.TB) *Module {
		return module(t, leaf, fn("main", I64, nil, func(b *Builder) {
			b.Ret(b.CallInd(I64, b.GlobalAddr("leaf", 0), b.Const(1), b.Const(2)))
		}))
	}},
	{name: "indirect-call", entry: "main", build: func(t testing.TB) *Module {
		return module(t, leaf, fn("main", I64, nil, func(b *Builder) {
			b.Ret(b.CallInd(I64, b.GlobalAddr("leaf", 0), b.Const(41)))
		}))
	}},
	{name: "unsupported-syscall", entry: "main", build: func(t testing.TB) *Module {
		return module(t, fn("main", I64, nil, func(b *Builder) { b.Ret(b.Syscall(99, b.Const(1))) }))
	}},
	{name: "write-needs-3-args", entry: "main", build: func(t testing.TB) *Module {
		return module(t, fn("main", I64, nil, func(b *Builder) { b.Ret(b.Syscall(2, b.Const(1))) }))
	}},
	{name: "write-from-an-absent-page", entry: "main", build: func(t testing.TB) *Module {
		return module(t, fn("main", I64, nil, func(b *Builder) {
			b.Ret(b.Syscall(2, b.Const(1), b.Const(0x1000), b.Const(8)))
		}))
	}},
	{name: "write-untouched-heap", entry: "main", build: func(t testing.TB) *Module {
		return module(t, fn("main", I64, nil, func(b *Builder) {
			p := b.Syscall(3, b.Const(3*mem.PageSize+100))
			b.StoreB(p, mem.PageSize+5, b.Const('x'))
			b.Syscall(2, b.Const(1), p, b.Const(3*mem.PageSize+100))
			b.Syscall(2, b.Const(1), b.BinImm(Add, p, 3*mem.PageSize+100), b.Const(7)) // up to the break's page
			b.Ret(b.Syscall(3, b.Const(0)))
		}))
	}},
	{name: "gettime-after-call", entry: "main", build: func(t testing.TB) *Module {
		return module(t, leaf, fn("main", I64, nil, func(b *Builder) {
			t0 := b.Syscall(4)
			b.Call(I64, "leaf", b.Const(1))
			t1 := b.Syscall(4)
			p := b.GlobalAddr("buf", 0)
			b.Store(p, 0, t0)
			b.Store(p, 8, t1)
			writeBuf(b, 16)
			b.Ret(b.Bin(Sub, t1, t0))
		}))
	}},
	{name: "float-int-across-calls", entry: "main", build: func(t testing.TB) *Module {
		mixed := []Param{{Name: "a", Type: F64}, {Name: "n", Type: I64}, {Name: "c", Type: F64}}
		return module(t,
			fn("mix", F64, mixed, func(b *Builder) {
				b.Ret(b.FBin(FAdd, b.FBin(FMul, b.Param(0), b.Param(2)), b.I2F(b.Param(1))))
			}),
			fn("main", I64, nil, func(b *Builder) {
				x := b.Call(F64, "mix", b.FConst(1.5), b.Const(3), b.FConst(-2.25))
				// Arguments of the other register file reach the callee as zero.
				y := b.Call(F64, "mix", b.Const(7), b.FConst(2.5), b.FConst(4))
				p := b.GlobalAddr("buf", 0)
				b.Store(p, 0, x)
				b.Store(p, 8, y)
				b.Store(p, 16, b.F2I(b.FBin(FDiv, x, y)))
				writeBuf(b, 24)
				b.Ret(b.F2I(b.FBin(FSub, x, y)))
			}))
	}},
	{name: "memory-corners", entry: "main", build: func(t testing.TB) *Module {
		return module(t, fn("main", I64, nil, func(b *Builder) {
			heap := b.Syscall(3, b.Const(2*mem.PageSize))
			// A word straddling two pages, stored and loaded.
			b.Store(heap, mem.PageSize-4, b.Const(0x1122334455667788))
			v := b.Load(I64, heap, mem.PageSize-4)
			// Atomics on a page nothing touched yet.
			cell := b.Const(int64(mem.HeapBase) + 64*mem.PageSize)
			old := b.AtomicAdd(cell, 0, b.Const(5))
			b.AtomicCAS(cell, 0, b.Const(5), b.Const(9))
			b.AtomicCAS(cell, 0, b.Const(5), b.Const(11))
			p := b.GlobalAddr("buf", 0)
			b.Store(p, 0, v)
			b.Store(p, 8, b.Load(I64, cell, 0))
			b.Store(p, 16, old)
			b.StoreB(p, 24, b.LoadB(heap, mem.PageSize-1))
			writeBuf(b, 25)
			b.Ret(b.Const(0))
		}))
	}},
	{name: "allocas-per-depth", entry: "main", build: func(t testing.TB) *Module {
		return module(t,
			// down(n) keeps n in an alloca across a recursive call and
			// returns the sum of the addresses' low bits and the values.
			fn("down", I64, i64, func(b *Builder) {
				slot := b.Alloca(24)
				b.Store(slot, 16, b.Param(0))
				rec := b.NewBlock("rec")
				done := b.NewBlock("done")
				b.SetBlock(0)
				b.CondBr(b.Param(0), rec, done)
				b.SetBlock(rec)
				r := b.Call(I64, "down", b.BinImm(Sub, b.Param(0), 1))
				sum := b.Bin(Add, r, b.Load(I64, slot, 16))
				b.Ret(b.Bin(Add, sum, b.BinImm(And, slot, 0xffff)))
				b.SetBlock(done)
				b.Ret(b.Load(I64, slot, 0))
			}),
			fn("main", I64, nil, func(b *Builder) { b.Ret(b.Call(I64, "down", b.Const(20))) }))
	}},
}

// TestInterpRejectsMalformedIR: IR the verifier rejects fails with an error
// naming the function and block when the bad instruction is reached, and
// costs nothing while it is not. The step-at-a-time interpreter panicked on
// the first three (a nil callee; an argument index; a block index) and ran
// the fourth's block again and again until the step limit.
func TestInterpRejectsMalformedIR(t *testing.T) {
	for _, c := range []struct {
		name, entry, want string
		build             func(testing.TB) *Module
	}{
		{"undefined-callee", "main", `main/entry: interp: call to undefined function "nonexistent"`, buildUnknownCallee},
		{"too-few-args", "main2", "main2/entry: interp: call to add passes 0 args, wants 2", buildArgCountMismatch},
		{"branch-target", "main", "main/entry: interp: branch target 99 out of range (1 blocks)", buildBadBranchTarget},
		{"missing-terminator", "bad", "bad/entry: interp: block does not end in a terminator", buildMissingTerminator},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := c.build(t)
			if m.Verify() == nil {
				t.Fatal("the verifier accepts the module")
			}
			ip := NewInterp(m)
			if _, err := ip.Run(c.entry); errText(err) != c.want {
				t.Errorf("error %q, want %q", errText(err), c.want)
			}
		})
	}

	// A bad instruction that is never reached changes nothing.
	m := module(t, fn("main", I64, nil, func(b *Builder) {
		dead := b.NewBlock("dead")
		live := b.NewBlock("live")
		b.SetBlock(0)
		b.CondBr(b.Const(0), dead, live)
		b.SetBlock(dead)
		b.Call(I64, "nonexistent")
		b.Br(99)
		b.SetBlock(live)
		b.Ret(b.Const(7))
	}))
	if v, err := NewInterp(m).Run("main"); v != 7 || err != nil {
		t.Errorf("unreached bad instructions: main = %d, %v; want 7", v, err)
	}
}

// TestInterpSbrkIsDemandZero: sbrk makes no page present; a store makes
// its own page present, and a write of heap nobody touched prints zeros.
func TestInterpSbrkIsDemandZero(t *testing.T) {
	const size = 64 << 20
	m := module(t, fn("main", I64, nil, func(b *Builder) {
		p := b.Syscall(3, b.Const(size))
		b.StoreB(p, size-1, b.Const(1))
		q := b.Syscall(3, b.Const(16))
		b.Syscall(2, b.Const(1), q, b.Const(16))
		b.Ret(b.Const(0))
	}))
	ip := NewInterp(m)
	if _, err := ip.Run("main"); err != nil {
		t.Fatal(err)
	}
	// The global buf's page, the store's page and the one write read.
	if n := len(ip.Mem.PageIndices()); n > 4 {
		t.Errorf("%d pages present after sbrk(%d) and one store; want at most 4", n, size)
	}
	if got := ip.Output(); string(got) != strings.Repeat("\x00", 16) {
		t.Errorf("untouched heap printed %q, want 16 zero bytes", got)
	}
}

// TestInterpCallsDoNotAllocate: once an interpreter has run a program, a
// call costs no allocation: main calling a leaf 10,000 times allocates
// what main calling it once does.
func TestInterpCallsDoNotAllocate(t *testing.T) {
	ip := NewInterp(module(t, leaf, calls("once", 1), calls("many", 10_000)))
	allocs := map[string]float64{}
	for _, entry := range []string{"once", "many"} {
		if _, err := ip.Run(entry); err != nil {
			t.Fatal(err)
		}
		allocs[entry] = testing.AllocsPerRun(5, func() {
			if _, err := ip.Run(entry); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs["once"] != allocs["many"] {
		t.Errorf("a Run allocates %v times with one call, %v with 10,000", allocs["once"], allocs["many"])
	}
}

// BenchmarkInterp runs the nine single-threaded class-S NPB programs on
// fresh interpreters; one op is the set.
func BenchmarkInterp(b *testing.B) {
	cases := npbCases(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			if _, err := NewInterp(c.build(b)).Run(c.entry); err != nil {
				b.Fatal(c.name, err)
			}
		}
	}
}
