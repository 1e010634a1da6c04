package machine_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"heterodc/internal/core"
	"heterodc/internal/dbt"
	"heterodc/internal/fuzz"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/link"
	"heterodc/internal/machine"
	"heterodc/internal/mem"
	"heterodc/internal/npb"
	"heterodc/internal/sys"
)

// host is the least operating system a guest needs under a bare core:
// absent pages are zero-filled on first touch, sbrk moves a break, write
// and gettime answer plausibly and every other call returns 0. It logs
// what the core surfaced, so two ways of driving the same program can be
// compared event by event. Threads never start, so programs that wait for
// one spin until the cycle limit — the same spin under every driver.
type host struct {
	c   *machine.Core
	brk uint64
	log []string
}

// load puts img on a fresh core at its entry shim. Only initialised data
// and the word under the initial stack pointer are resident.
func load(tb testing.TB, img *link.Image, arch isa.Arch) *host {
	tb.Helper()
	d := isa.Describe(arch)
	c := machine.NewCore(d)
	c.Prog = img.Prog(arch)
	c.Mem = mem.NewMemory()
	for _, seg := range img.Data[arch] {
		c.Mem.WriteBytes(seg.Addr, seg.Bytes)
	}
	lo, _ := mem.ThreadStackWindow(0)
	sp := (lo + mem.StackHalf - 64) &^ 15
	if d.RetAddrOnStack {
		sp -= 8
	}
	c.Mem.EnsurePage(sp) // holds the zero return address of the entry shim
	c.RegsI[d.SP] = int64(sp)
	if err := c.SetPC(img.FuncAddr[arch]["__start"]); err != nil {
		tb.Fatal(err)
	}
	h := &host{c: c, brk: mem.HeapBase}
	c.MigrateCheckEntry = img.FuncAddr[arch]["__migrate_check"]
	c.OnMigratePoint = func(since uint64) { h.log = append(h.log, fmt.Sprintf("point +%d", since)) }
	return h
}

// handle services ev and reports whether the program is over.
func (h *host) handle(ev machine.Event) (done bool) {
	c := h.c
	switch ev {
	case machine.EvFault:
		h.log = append(h.log, fmt.Sprintf("fault %#x w=%v pc=%#x n=%d", c.FaultAddr, c.FaultWrite, c.PC, c.Instrs))
		c.Mem.EnsurePage(c.FaultAddr)
	case machine.EvSyscall:
		num, args := c.SyscallArgs()
		h.log = append(h.log, fmt.Sprintf("syscall %d %v pc=%#x n=%d", num, args, c.PC, c.Instrs))
		var ret int64
		switch num {
		case sys.SysExit:
			return true
		case sys.SysSbrk:
			ret = int64(h.brk)
			h.brk += uint64(args[0])
		case sys.SysWrite:
			ret = args[2]
		case sys.SysGettime:
			ret = int64(c.Instrs)
		}
		c.SetSyscallResult(ret)
	case machine.EvError:
		h.log = append(h.log, fmt.Sprintf("error %v n=%d", c.Err, c.Instrs))
		return true
	}
	return false
}

// drive runs the program until it ends or Cycles reaches limit: one Step
// at a time for slice 0, otherwise in Run calls of at most slice cycles.
func (h *host) drive(limit, slice int64) {
	c := h.c
	for c.Cycles < limit {
		var ev machine.Event
		if slice == 0 {
			ev = c.Step()
		} else {
			ev = c.Run(min(limit, c.Cycles+min(slice, limit))) // min: an unbounded slice must not overflow
		}
		if h.handle(ev) {
			return
		}
	}
}

// state renders everything the simulation reports about a core, plus a
// digest of its memory.
func (h *host) state() string {
	c := h.c
	sum := fnv.New64a()
	idx := c.Mem.PageIndices()
	slices.Sort(idx)
	var w [8]byte
	for _, i := range idx {
		binary.LittleEndian.PutUint64(w[:], i)
		sum.Write(w[:])
		sum.Write(c.Mem.Page(i << mem.PageShift)[:])
	}
	var rf [32]uint64
	for i, f := range c.RegsF {
		rf[i] = math.Float64bits(f)
	}
	return fmt.Sprintf("pc=%#x fn=%s idx=%d cycles=%d instrs=%d\nri=%v\nrf=%x\nicache=%d/%d dcache=%d/%d mem=%x",
		c.PC, c.Fn.Name, c.Idx, c.Cycles, c.Instrs, c.RegsI, rf,
		c.ICache.Misses, c.ICache.Accesses, c.DCache.Misses, c.DCache.Accesses, sum.Sum64())
}

// hook installs the instrumented configuration on h's core: the DBT
// emulation cost function (guest arch on the other ISA, fig1's path) and
// the call and migration-point hooks, which log the core's counters as the
// hooks see them. Under it the interpreter must bring every batched counter
// up to date before a hook fires.
func (h *host) hook(tb testing.TB, arch isa.Arch) {
	c := h.c
	emu := isa.X86
	if arch == isa.X86 {
		emu = isa.ARM64
	}
	p, err := dbt.ProfileFor(arch, emu)
	if err != nil {
		tb.Fatal(err)
	}
	c.CostFn = dbt.CostFn(emu, p)
	counters := func() string {
		return fmt.Sprintf("cycles=%d instrs=%d icache=%d/%d dcache=%d/%d", c.Cycles, c.Instrs,
			c.ICache.Misses, c.ICache.Accesses, c.DCache.Misses, c.DCache.Accesses)
	}
	c.OnAnyCall = func(since uint64) { h.log = append(h.log, fmt.Sprintf("call +%d %s", since, counters())) }
	c.OnMigratePointAt = func(fn string) { h.log = append(h.log, fmt.Sprintf("point in %s %s", fn, counters())) }
}

// program is a guest the exactness tests run to a cycle limit.
type program struct {
	name  string
	img   *link.Image
	limit int64
}

// programs builds the fuzz corpus and NPB class S (EP, IS and CG only under
// -short).
func programs(t *testing.T) []program {
	t.Helper()
	var ps []program
	files, err := fuzz.ListCorpus(filepath.Join("..", "fuzz", "testdata"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fuzz corpus: %d files, %v", len(files), err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		img, err := core.Build(filepath.Base(f), core.Src(filepath.Base(f), string(src)))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		ps = append(ps, program{filepath.Base(f), img, 1_000_000})
	}
	benches := []npb.Bench{npb.EP, npb.IS, npb.CG}
	if !testing.Short() {
		benches = npb.All
	}
	for _, b := range benches {
		img, err := npb.Build(b, npb.ClassS, 1)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, program{img.Name, img, 3_000_000})
	}
	return ps
}

// TestRunMatchesStepLoop: for every program of the fuzz corpus and NPB
// class S on both ISAs, Run with budgets of one cycle, seven cycles, one
// kernel quantum and everything ends with the registers, PC, cycle and
// instruction counts, cache counters, memory and event sequence of a pure
// Step loop — plainly, and hooked (see hook), where the event sequence
// includes the counters every hook observed. An unbounded Run on the image
// with every SameLine flag cleared ends the same way too: the flags are a
// pure shortcut.
func TestRunMatchesStepLoop(t *testing.T) {
	for _, p := range programs(t) {
		for _, arch := range isa.Arches {
			for _, hooked := range []bool{false, true} {
				start := func() *host {
					h := load(t, p.img, arch)
					if hooked {
						h.hook(t, arch)
					}
					return h
				}
				ref := start()
				ref.drive(p.limit, 0)
				want := ref.state()
				if ref.c.Instrs < 1000 {
					t.Errorf("%s on %s (hooked %v): only %d instructions before %q", p.name, arch, hooked, ref.c.Instrs, ref.log[len(ref.log)-1])
				}
				check := func(h *host, how string) {
					if got := h.state(); got != want {
						t.Errorf("%s on %s (hooked %v), %s:\n%s\nStep loop:\n%s", p.name, arch, hooked, how, got, want)
					}
					if !slices.Equal(h.log, ref.log) {
						i := 0
						for i < len(h.log) && i < len(ref.log) && h.log[i] == ref.log[i] {
							i++
						}
						t.Errorf("%s on %s (hooked %v), %s: %d events against %d, first difference at %d: %q vs %q",
							p.name, arch, hooked, how, len(h.log), len(ref.log), i, at(h.log, i), at(ref.log, i))
					}
				}
				quantum := int64(kernel.Quantum * isa.Describe(arch).ClockHz)
				for _, slice := range []int64{1, 7, quantum, math.MaxInt64} {
					h := start()
					h.drive(p.limit, slice)
					check(h, fmt.Sprintf("Run in slices of %d", slice))
				}
				if n := withoutSameLine(p.img, func() {
					h := start()
					h.drive(p.limit, math.MaxInt64)
					check(h, "Run with no SameLine flags")
				}); n == 0 {
					t.Errorf("%s: no instruction flagged SameLine", p.name)
				}
			}
		}
	}
}

// withoutSameLine clears every SameLine flag of img while f runs and
// returns how many there were.
func withoutSameLine(img *link.Image, f func()) int {
	var flagged []*isa.Instr
	for _, prog := range img.Progs {
		for _, fn := range prog.Funcs {
			for i := range fn.Code {
				if in := &fn.Code[i]; in.SameLine {
					in.SameLine = false
					flagged = append(flagged, in)
				}
			}
		}
	}
	defer func() {
		for _, in := range flagged {
			in.SameLine = true
		}
	}()
	f()
	return len(flagged)
}

// goldenPath records, per program, ISA and configuration (plain or
// hooked), where a Step loop of the interpreter as it was before its hot
// path was rewritten left the core (host.state) and a digest of its event
// log. Step is run limited to one instruction, so TestRunMatchesStepLoop
// compares the instruction body with itself; only a record made by an
// earlier interpreter catches a drift in that shared body. An entry changes
// only with a deliberate change of guest semantics or of the cost model:
// then replace it with the one the failure prints.
const goldenPath = "testdata/run_golden.txt"

// record is h's golden entry body: its state and its event-log digest.
func (h *host) record() string {
	sum := fnv.New64a()
	for _, e := range h.log {
		sum.Write([]byte(e))
		sum.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%s\nevents=%d log=%016x", h.state(), len(h.log), sum.Sum64())
}

// goldenKey names a run in goldenPath: "name arch", plus " hooked".
func goldenKey(name string, arch isa.Arch, hooked bool) string {
	if hooked {
		return name + " " + arch.String() + " hooked"
	}
	return name + " " + arch.String()
}

// goldenEntry is one entry of goldenPath as written: a "== key" header
// line, then the record.
func goldenEntry(key, record string) string {
	return "== " + key + "\n" + record + "\n"
}

// readGolden parses goldenPath into records by key; lines starting with #
// are comments.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	var key string
	var body []string
	flush := func() {
		if key != "" {
			out[key] = strings.Join(body, "\n")
		}
	}
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "== "):
			flush()
			key, body = strings.TrimPrefix(line, "== "), nil
		default:
			body = append(body, line)
		}
	}
	flush()
	return out
}

// TestRunMatchesGolden: a Step loop and an unbounded Run end every program
// of TestRunMatchesStepLoop, plain and hooked, where the recorded
// interpreter did.
func TestRunMatchesGolden(t *testing.T) {
	golden := readGolden(t)
	for _, p := range programs(t) {
		for _, arch := range isa.Arches {
			for _, hooked := range []bool{false, true} {
				key := goldenKey(p.name, arch, hooked)
				want, ok := golden[key]
				if !ok {
					t.Errorf("%s: no entry in %s", key, goldenPath)
					continue
				}
				for _, slice := range []int64{0, math.MaxInt64} {
					h := load(t, p.img, arch)
					if hooked {
						h.hook(t, arch)
					}
					h.drive(p.limit, slice)
					if got := h.record(); got != want {
						t.Errorf("%s, slices of %d: got\n%srecorded\n%s", key, slice, goldenEntry(key, got), goldenEntry(key, want))
					}
				}
			}
		}
	}
}

func at(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<end>"
}

// ballast is the flagship benchmark's job (bench/flagship.go): integer
// arithmetic in a call-heavy double loop.
const ballast = `
long chunk(long base) {
	long s = 0;
	for (long j = 0; j < 100; j++) {
		s += (base + j) % 7;
		s += (base * j) % 3;
	}
	return s;
}
long main(void) {
	long sum = 0;
	for (long i = 0; i < 1500; i++) { sum += chunk(i); }
	print_i64_ln(sum);
	return 0;
}`

// runBallast runs the ballast to its first system call (the final print)
// and returns the instructions retired.
func runBallast(tb testing.TB, img *link.Image, arch isa.Arch) uint64 {
	h := load(tb, img, arch)
	h.c.OnMigratePoint = nil
	for {
		switch ev := h.c.Run(math.MaxInt64); ev {
		case machine.EvFault:
			h.c.Mem.EnsurePage(h.c.FaultAddr)
		case machine.EvSyscall:
			return h.c.Instrs
		default:
			tb.Fatalf("ballast stopped with event %d: %v", ev, h.c.Err)
		}
	}
}

// BenchmarkCoreRun reports host nanoseconds per guest instruction.
func BenchmarkCoreRun(b *testing.B) {
	img, err := core.Build("ballast", core.Src("ballast.c", ballast))
	if err != nil {
		b.Fatal(err)
	}
	for _, arch := range isa.Arches {
		b.Run(arch.String(), func(b *testing.B) {
			b.ReportAllocs()
			var instrs uint64
			for i := 0; i < b.N; i++ {
				instrs += runBallast(b, img, arch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}

// TestRunDoesNotAllocate: nothing on the per-instruction path — fetch,
// loads and stores, calls and returns, the migration-point check — may
// allocate. The core is warmed first: its TLB is allocated on first use and
// first touches fault.
func TestRunDoesNotAllocate(t *testing.T) {
	img, err := core.Build("ballast", core.Src("ballast.c", ballast))
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range isa.Arches {
		h := load(t, img, arch)
		h.c.OnMigratePoint = nil
		warm := func() {
			for i := 0; i < 50; i++ {
				if ev := h.c.Run(h.c.Cycles + 1000); ev == machine.EvFault {
					h.c.Mem.EnsurePage(h.c.FaultAddr)
				} else if ev != machine.EvNone {
					t.Fatalf("%s: event %d: %v", arch, ev, h.c.Err)
				}
			}
		}
		warm()
		before := h.c.Instrs
		if n := testing.AllocsPerRun(5, warm); n != 0 {
			t.Errorf("%s: %v allocs per run of the interpreter loop, want 0", arch, n)
		}
		if h.c.Instrs-before < 10000 {
			t.Errorf("%s: only %d instructions measured", arch, h.c.Instrs-before)
		}
	}
}
