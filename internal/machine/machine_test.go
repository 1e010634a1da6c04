package machine

import (
	"math"
	"strings"
	"testing"

	"heterodc/internal/compiler"
	"heterodc/internal/isa"
	"heterodc/internal/link"
	"heterodc/internal/mem"
	"heterodc/internal/minic"
	"heterodc/internal/sys"
)

// buildCore compiles src and prepares a core at main's entry on arch, with
// a stack and all data pages present.
func buildCore(t *testing.T, src string, arch isa.Arch) (*Core, *link.Image) {
	t.Helper()
	m, err := minic.CompileToIR("t", minic.Source{Name: "t.c", Code: src})
	if err != nil {
		t.Fatal(err)
	}
	art, err := compiler.Compile(m, compiler.Options{Migration: false})
	if err != nil {
		t.Fatal(err)
	}
	img, err := link.Link("t", art, link.Options{Aligned: true})
	if err != nil {
		t.Fatal(err)
	}
	d := isa.Describe(arch)
	c := NewCore(d)
	c.Prog = img.Prog(arch)
	c.Mem = mem.NewMemory()
	// Install data segments and a stack.
	for _, seg := range img.Data[arch] {
		end := seg.Addr + uint64(seg.Size)
		for a := mem.PageBase(seg.Addr); a < end; a += mem.PageSize {
			c.Mem.EnsurePage(a)
		}
		if len(seg.Bytes) > 0 {
			c.Mem.WriteBytes(seg.Addr, seg.Bytes)
		}
	}
	lo, hi := mem.ThreadStackWindow(0)
	for a := lo; a < hi; a += mem.PageSize {
		c.Mem.EnsurePage(a)
	}
	c.Mem.EnsurePage(mem.VDSOBase)
	sp := (lo + mem.StackHalf - 64) &^ 15
	if d.RetAddrOnStack {
		sp -= 8
		if err := c.Mem.WriteU64(sp, 0); err != nil {
			t.Fatal(err)
		}
	}
	c.RegsI[d.SP] = int64(sp)
	if err := c.SetPC(img.FuncAddr[arch]["main"]); err != nil {
		t.Fatal(err)
	}
	return c, img
}

// runUntilSyscall steps until a syscall traps, with a step bound.
func runUntilSyscall(t *testing.T, c *Core) (int64, [5]int64) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		switch ev := c.Step(); ev {
		case EvSyscall:
			n, a := c.SyscallArgs()
			return n, a
		case EvNone:
		default:
			t.Fatalf("unexpected event %d: %v", ev, c.Err)
		}
	}
	t.Fatal("no syscall within bound")
	return 0, [5]int64{}
}

func TestExecuteArithmeticToExitBothISAs(t *testing.T) {
	src := `long main(void){ __syscall(1, 6 * 7 + 1); return 0; }`
	for _, arch := range isa.Arches {
		c, _ := buildCore(t, src, arch)
		num, args := runUntilSyscall(t, c)
		if num != sys.SysExit || args[0] != 43 {
			t.Errorf("%s: syscall %d(%d), want exit(43)", arch, num, args[0])
		}
		if c.Instrs == 0 || c.Cycles == 0 {
			t.Errorf("%s: no retirement accounting", arch)
		}
	}
}

func TestFloatPathBothISAs(t *testing.T) {
	src := `long main(void){
		double a = 2.25;
		double b = a * 4.0 - 1.0;
		__syscall(1, (long)(b * 100.0));
		return 0; }`
	for _, arch := range isa.Arches {
		c, _ := buildCore(t, src, arch)
		_, args := runUntilSyscall(t, c)
		if args[0] != 800 {
			t.Errorf("%s: got %d, want 800", arch, args[0])
		}
	}
}

func TestDivisionByZeroTraps(t *testing.T) {
	src := `
long zero = 0;
long main(void){ __syscall(1, 5 / zero); return 0; }`
	for _, arch := range isa.Arches {
		c, _ := buildCore(t, src, arch)
		for i := 0; i < 100000; i++ {
			ev := c.Step()
			if ev == EvError {
				if !strings.Contains(c.Err.Error(), "division by zero") {
					t.Fatalf("%s: wrong error %v", arch, c.Err)
				}
				return
			}
			if ev != EvNone {
				t.Fatalf("%s: unexpected event %d", arch, ev)
			}
		}
		t.Fatalf("%s: no trap", arch)
	}
}

func TestFaultOnAbsentPageAndRetry(t *testing.T) {
	src := `
long g = 5;
long main(void){ __syscall(1, g + 1); return 0; }`
	c, img := buildCore(t, src, isa.X86)
	// Drop the data page to force a fault mid-run.
	gaddr := img.GlobalAddr[isa.X86]["g"]
	saved := *c.Mem.Page(gaddr)
	c.Mem.DropPage(gaddr)
	faulted := false
	for i := 0; i < 100000; i++ {
		switch ev := c.Step(); ev {
		case EvFault:
			if c.FaultAddr != gaddr {
				t.Fatalf("fault at %#x, want %#x", c.FaultAddr, gaddr)
			}
			faulted = true
			c.Mem.InstallPage(gaddr, &saved)
		case EvSyscall:
			if !faulted {
				t.Fatal("expected a fault before the syscall")
			}
			_, args := c.SyscallArgs()
			if args[0] != 6 {
				t.Fatalf("after fault retry got %d, want 6", args[0])
			}
			return
		case EvError:
			t.Fatal(c.Err)
		}
	}
	t.Fatal("never reached the syscall")
}

func TestVDSOMagicReads(t *testing.T) {
	src := `long main(void){
		long tid = *(long*)112589990684262400; // placeholder, patched below
		__syscall(1, tid);
		return 0; }`
	_ = src
	// Simpler: read via the prelude-free path using a direct address.
	src2 := `long main(void){
		long *p = (long*)` + uitoa(sys.VDSOTidAddr) + `;
		long *q = (long*)` + uitoa(sys.VDSONodeAddr) + `;
		__syscall(1, *p * 100 + *q);
		return 0; }`
	c, _ := buildCore(t, src2, isa.ARM64)
	c.CurTID = 7
	c.CurNode = 1
	_, args := runUntilSyscall(t, c)
	if args[0] != 701 {
		t.Fatalf("vdso reads gave %d, want 701", args[0])
	}
}

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [24]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestAtomicOpsSequential(t *testing.T) {
	src := `
long word = 10;
long main(void){
	long old1 = __atomic_add(&word, 5);
	long old2 = __atomic_cas(&word, 15, 99);
	long old3 = __atomic_cas(&word, 15, 77); // fails: word is 99
	__syscall(1, old1 * 1000000 + old2 * 1000 + word);
	return 0; }`
	for _, arch := range isa.Arches {
		c, _ := buildCore(t, src, arch)
		_, args := runUntilSyscall(t, c)
		if args[0] != 10*1000000+15*1000+99 {
			t.Errorf("%s: atomics gave %d", arch, args[0])
		}
	}
}

func TestWildJumpReported(t *testing.T) {
	src := `long main(void){
		long fp = 12345;
		return __icall((char*)fp, 0); }`
	c, _ := buildCore(t, src, isa.X86)
	for i := 0; i < 100000; i++ {
		if ev := c.Step(); ev == EvError {
			if !strings.Contains(c.Err.Error(), "indirect call") {
				t.Fatalf("wrong error: %v", c.Err)
			}
			return
		}
	}
	t.Fatal("wild indirect call not trapped")
}

func TestInstrumentationHooks(t *testing.T) {
	// f has a branch, so the tiny-function inliner leaves the calls intact.
	src := `
long f(long x) { if (x > 100) return x; return x + 1; }
long main(void){
	long s = 0;
	for (long i = 0; i < 5; i++) s = f(s);
	__syscall(1, s);
	return 0; }`
	c, _ := buildCore(t, src, isa.X86)
	calls := 0
	c.OnAnyCall = func(gap uint64) { calls++ }
	runUntilSyscall(t, c)
	if calls < 5 {
		t.Errorf("call hook fired %d times, want >= 5", calls)
	}
}

func TestCacheChargesApplied(t *testing.T) {
	src := `
long arr[4096];
long main(void){
	long s = 0;
	for (long i = 0; i < 4096; i++) s += arr[i];
	__syscall(1, s);
	return 0; }`
	c, _ := buildCore(t, src, isa.X86)
	runUntilSyscall(t, c)
	if c.DCache.Misses == 0 {
		t.Error("streaming over 32 KiB produced no D-cache misses")
	}
	if c.ICache.Accesses == 0 {
		t.Error("no instruction fetches recorded")
	}
}

func TestCostFnOverride(t *testing.T) {
	src := `long main(void){
		long s = 0;
		for (long i = 0; i < 1000; i++) s += i;
		__syscall(1, s);
		return 0; }`
	base, _ := buildCore(t, src, isa.X86)
	runUntilSyscall(t, base)
	over, _ := buildCore(t, src, isa.X86)
	over.CostFn = func(op isa.Op) int64 { return 50 * isa.CycleCost(isa.X86, op) }
	runUntilSyscall(t, over)
	if over.Cycles < 10*base.Cycles {
		t.Errorf("cost override ineffective: %d vs %d", over.Cycles, base.Cycles)
	}
	// Run charges through the same override as Step.
	ran, _ := buildCore(t, src, isa.X86)
	ran.CostFn = over.CostFn
	if ev := ran.Run(math.MaxInt64); ev != EvSyscall {
		t.Fatalf("Run stopped with event %d: %v", ev, ran.Err)
	}
	if ran.Cycles != over.Cycles || ran.Instrs != over.Instrs {
		t.Errorf("Run under CostFn: %d cycles, %d instrs; Step loop: %d, %d", ran.Cycles, ran.Instrs, over.Cycles, over.Instrs)
	}
}

// Run stops at the first instruction that takes Cycles to the budget, and
// does nothing when it is already there.
func TestRunHonoursBudget(t *testing.T) {
	src := `long main(void){
		long s = 0;
		for (long i = 0; i < 1000; i++) s += i;
		__syscall(1, s);
		return 0; }`
	c, _ := buildCore(t, src, isa.ARM64)
	ref, _ := buildCore(t, src, isa.ARM64)
	if ev := c.Run(100); ev != EvNone {
		t.Fatalf("event %d before the budget: %v", ev, c.Err)
	}
	for ref.Cycles < 100 {
		ref.Step()
	}
	if c.Cycles < 100 || c.Cycles != ref.Cycles || c.Instrs != ref.Instrs || c.PC != ref.PC {
		t.Errorf("Run(100): %d cycles, %d instrs, pc %#x; Step loop: %d, %d, %#x",
			c.Cycles, c.Instrs, c.PC, ref.Cycles, ref.Instrs, ref.PC)
	}
	instrs := c.Instrs
	if ev := c.Run(c.Cycles); ev != EvNone || c.Instrs != instrs {
		t.Errorf("Run with an exhausted budget retired %d instructions (event %d)", c.Instrs-instrs, ev)
	}
}
