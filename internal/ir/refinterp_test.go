// This file is the interpreter as it was before it decoded functions: one
// call of exec per instruction, fresh register files, argument slices and
// alloca tables per call, and every page of an sbrk region made present up
// front. It is kept verbatim, bar the renaming of Interp and NewInterp and
// the package clause, as the reference TestInterpMatchesReference compares
// the decoded interpreter with.

package ir_test

import (
	"fmt"
	"math"

	. "heterodc/internal/ir"
	"heterodc/internal/mem"
)

// refInterp is a direct IR interpreter. It serves as the semantic reference:
// property tests compile random programs for both ISAs, run them on the
// machine simulator (with and without migration), and require agreement with
// this interpreter's result.
//
// The interpreter supports single-threaded programs with the "pure" syscall
// subset (exit, write, sbrk, gettime); programs that spawn threads must run
// on the full kernel.
type refInterp struct {
	M *Module

	Mem   *mem.Memory
	brk   uint64
	out   []byte
	steps int64
	// MaxSteps bounds execution to catch non-terminating generated programs.
	MaxSteps int64

	globalAddr map[string]uint64
	funcAddr   map[string]uint64
	funcAt     map[uint64]*Func
	exited     bool
	exitCode   int64
}

// Syscall numbers shared with the kernel (see internal/kernel/syscall.go).
// Duplicated here as the interpreter only understands the pure subset.
const (
	sysExit    = 1
	sysWrite   = 2
	sysSbrk    = 3
	sysGettime = 4
)

// newRefInterp prepares an interpreter: globals are laid out from mem.DataBase
// in declaration order (mirroring the linker's policy).
func newRefInterp(m *Module) *refInterp {
	ip := &refInterp{
		M:          m,
		Mem:        mem.NewMemory(),
		brk:        mem.HeapBase,
		MaxSteps:   2_000_000_000,
		globalAddr: make(map[string]uint64),
	}
	// Functions get synthetic entry addresses so function pointers and
	// indirect calls work (matching the linker's text placement policy).
	ip.funcAddr = make(map[string]uint64, len(m.Funcs))
	ip.funcAt = make(map[uint64]*Func, len(m.Funcs))
	for i, f := range m.Funcs {
		fa := mem.TextBase + uint64(i)*64
		ip.funcAddr[f.Name] = fa
		ip.funcAt[fa] = f
	}
	addr := mem.DataBase
	for _, g := range m.Globals {
		align := uint64(g.Align)
		if align == 0 {
			align = 8
		}
		addr = mem.AlignUp(addr, align)
		ip.globalAddr[g.Name] = addr
		ip.Mem.WriteBytes(addr, g.Init)
		if int64(len(g.Init)) < g.Size {
			ip.Mem.WriteBytes(addr+uint64(len(g.Init)), make([]byte, g.Size-int64(len(g.Init))))
		}
		addr += uint64(g.Size)
	}
	return ip
}

// Output returns everything the program wrote to fd 1.
func (ip *refInterp) Output() []byte { return ip.out }

// GlobalAddr returns the interpreter's address for a global.
func (ip *refInterp) GlobalAddr(name string) uint64 { return ip.globalAddr[name] }

// frame is one interpreter activation record.
type frame struct {
	f       *Func
	regsI   []int64
	regsF   []float64
	allocas []uint64 // base address of each slot
}

// Run executes fn(args) and returns its integer result (0 for void).
// Execution stops early if the program calls exit.
func (ip *refInterp) Run(fnName string, args ...int64) (int64, error) {
	f := ip.M.Func(fnName)
	if f == nil {
		return 0, fmt.Errorf("interp: no function %q", fnName)
	}
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("interp: %s wants %d args, got %d", fnName, len(f.Params), len(args))
	}
	ia := make([]int64, len(args))
	copy(ia, args)
	fa := make([]float64, len(args))
	v, _, err := ip.call(f, ia, fa, 0)
	if ip.exited {
		return ip.exitCode, err
	}
	return v, err
}

// stackBase computes a fake alloca arena per depth; the interpreter does not
// model real stacks, but alloca addresses must be unique and stable while
// the frame is live.
const interpStackTop = mem.StackRegion + 64*mem.StackWindow

func (ip *refInterp) call(f *Func, intArgs []int64, fltArgs []float64, depth int) (int64, float64, error) {
	if depth > 512 {
		return 0, 0, fmt.Errorf("interp: call depth exceeded in %s", f.Name)
	}
	fr := &frame{
		f:     f,
		regsI: make([]int64, f.NumVRegs()),
		regsF: make([]float64, f.NumVRegs()),
	}
	for i, p := range f.Params {
		if p.Type.IsFloat() {
			fr.regsF[i] = fltArgs[i]
		} else {
			fr.regsI[i] = intArgs[i]
		}
	}
	// Allocas: carve a per-depth arena below interpStackTop.
	var total int64
	for _, sz := range f.AllocaSizes {
		total += sz
	}
	base := interpStackTop - uint64(depth+1)*mem.StackHalf
	fr.allocas = make([]uint64, len(f.AllocaSizes))
	off := uint64(0)
	for i, sz := range f.AllocaSizes {
		fr.allocas[i] = base + off
		// Zero the slot so programs see deterministic stack contents.
		ip.Mem.WriteBytes(fr.allocas[i], make([]byte, sz))
		off += uint64(sz)
	}
	_ = total

	bi := 0
	for {
		blk := f.Blocks[bi]
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			ip.steps++
			if ip.steps > ip.MaxSteps {
				return 0, 0, fmt.Errorf("interp: step limit exceeded in %s", f.Name)
			}
			next, retI, retF, done, err := ip.exec(fr, in, depth)
			if err != nil {
				return 0, 0, fmt.Errorf("%s/%s: %w", f.Name, blk.Name, err)
			}
			if done || ip.exited {
				return retI, retF, nil
			}
			if next >= 0 {
				bi = next
				break
			}
		}
	}
}

// exec runs one instruction. Returns (nextBlock or -1, retI, retF, done, err).
func (ip *refInterp) exec(fr *frame, in *Instr, depth int) (int, int64, float64, bool, error) {
	ri := fr.regsI
	rf := fr.regsF
	switch in.Kind {
	case KConst:
		ri[in.Dst] = in.Imm
	case KFConst:
		rf[in.Dst] = in.FImm
	case KMov:
		if fr.f.TypeOf(in.Dst).IsFloat() {
			rf[in.Dst] = rf[in.A]
		} else {
			ri[in.Dst] = ri[in.A]
		}
	case KBin:
		v, err := evalBin(in.Bin, ri[in.A], ri[in.B])
		if err != nil {
			return 0, 0, 0, false, err
		}
		ri[in.Dst] = v
	case KBinImm:
		v, err := evalBin(in.Bin, ri[in.A], in.Imm)
		if err != nil {
			return 0, 0, 0, false, err
		}
		ri[in.Dst] = v
	case KFBin:
		rf[in.Dst] = evalFBin(in.FBin, rf[in.A], rf[in.B])
	case KFNeg:
		rf[in.Dst] = -rf[in.A]
	case KFSqrt:
		rf[in.Dst] = math.Sqrt(rf[in.A])
	case KCmp:
		ri[in.Dst] = boolToI(evalCmp(in.Cmp, ri[in.A], ri[in.B]))
	case KFCmp:
		ri[in.Dst] = boolToI(evalFCmp(in.Cmp, rf[in.A], rf[in.B]))
	case KI2F:
		rf[in.Dst] = float64(ri[in.A])
	case KF2I:
		ri[in.Dst] = f2i(rf[in.A])
	case KLoad:
		addr := uint64(ri[in.A] + in.Imm)
		if fr.f.TypeOf(in.Dst).IsFloat() {
			v, err := ip.readF64(addr)
			if err != nil {
				return 0, 0, 0, false, err
			}
			rf[in.Dst] = v
		} else {
			v, err := ip.readU64(addr)
			if err != nil {
				return 0, 0, 0, false, err
			}
			ri[in.Dst] = int64(v)
		}
	case KStore:
		addr := uint64(ri[in.A] + in.Imm)
		if fr.f.TypeOf(in.B).IsFloat() {
			ip.Mem.EnsurePage(addr)
			ip.Mem.EnsurePage(addr + 7)
			if err := ip.Mem.WriteF64(addr, rf[in.B]); err != nil {
				return 0, 0, 0, false, err
			}
		} else {
			ip.Mem.EnsurePage(addr)
			ip.Mem.EnsurePage(addr + 7)
			if err := ip.Mem.WriteU64(addr, uint64(ri[in.B])); err != nil {
				return 0, 0, 0, false, err
			}
		}
	case KLoadB:
		addr := uint64(ri[in.A] + in.Imm)
		ip.Mem.EnsurePage(addr)
		b, err := ip.Mem.ReadU8(addr)
		if err != nil {
			return 0, 0, 0, false, err
		}
		ri[in.Dst] = int64(b)
	case KStoreB:
		addr := uint64(ri[in.A] + in.Imm)
		ip.Mem.EnsurePage(addr)
		if err := ip.Mem.WriteU8(addr, byte(ri[in.B])); err != nil {
			return 0, 0, 0, false, err
		}
	case KAllocaAddr:
		ri[in.Dst] = int64(fr.allocas[in.Alloca])
	case KGlobalAddr:
		a, ok := ip.globalAddr[in.Sym]
		if !ok {
			if fa, fok := ip.funcAddr[in.Sym]; fok {
				ri[in.Dst] = int64(fa) + in.Imm
				break
			}
			return 0, 0, 0, false, fmt.Errorf("interp: no address for symbol %q", in.Sym)
		}
		ri[in.Dst] = int64(a) + in.Imm
	case KCall:
		callee := ip.M.Func(in.Sym)
		ia := make([]int64, len(in.Args))
		fa := make([]float64, len(in.Args))
		for i, a := range in.Args {
			if fr.f.TypeOf(a).IsFloat() {
				fa[i] = rf[a]
			} else {
				ia[i] = ri[a]
			}
		}
		vi, vf, err := ip.call(callee, ia, fa, depth+1)
		if err != nil {
			return 0, 0, 0, false, err
		}
		if ip.exited {
			return 0, 0, 0, true, nil
		}
		if in.Dst != NoV {
			if fr.f.TypeOf(in.Dst).IsFloat() {
				rf[in.Dst] = vf
			} else {
				ri[in.Dst] = vi
			}
		}
	case KCallInd:
		callee, ok := ip.funcAt[uint64(ri[in.A])]
		if !ok {
			return 0, 0, 0, false, fmt.Errorf("interp: indirect call to non-function address %#x", uint64(ri[in.A]))
		}
		if len(in.Args) != len(callee.Params) {
			return 0, 0, 0, false, fmt.Errorf("interp: indirect call arity mismatch for %s", callee.Name)
		}
		ia := make([]int64, len(in.Args))
		fa := make([]float64, len(in.Args))
		for i, a := range in.Args {
			if fr.f.TypeOf(a).IsFloat() {
				fa[i] = rf[a]
			} else {
				ia[i] = ri[a]
			}
		}
		vi, vf, err := ip.call(callee, ia, fa, depth+1)
		if err != nil {
			return 0, 0, 0, false, err
		}
		if ip.exited {
			return 0, 0, 0, true, nil
		}
		if in.Dst != NoV {
			if fr.f.TypeOf(in.Dst).IsFloat() {
				rf[in.Dst] = vf
			} else {
				ri[in.Dst] = vi
			}
		}
	case KSyscall:
		argv := make([]int64, len(in.Args))
		for i, a := range in.Args {
			argv[i] = ri[a]
		}
		v, err := ip.syscall(in.Imm, argv)
		if err != nil {
			return 0, 0, 0, false, err
		}
		ri[in.Dst] = v
		if ip.exited {
			return 0, 0, 0, true, nil
		}
	case KAtomicAdd:
		addr := uint64(ri[in.A] + in.Imm)
		old, err := ip.readU64(addr)
		if err != nil {
			return 0, 0, 0, false, err
		}
		if err := ip.Mem.WriteU64(addr, uint64(int64(old)+ri[in.B])); err != nil {
			return 0, 0, 0, false, err
		}
		ri[in.Dst] = int64(old)
	case KAtomicCAS:
		addr := uint64(ri[in.A] + in.Imm)
		old, err := ip.readU64(addr)
		if err != nil {
			return 0, 0, 0, false, err
		}
		if int64(old) == ri[in.B] {
			if err := ip.Mem.WriteU64(addr, uint64(ri[in.C])); err != nil {
				return 0, 0, 0, false, err
			}
		}
		ri[in.Dst] = int64(old)
	case KRet:
		if in.A == NoV {
			return -1, 0, 0, true, nil
		}
		if fr.f.TypeOf(in.A).IsFloat() {
			return -1, 0, rf[in.A], true, nil
		}
		return -1, ri[in.A], 0, true, nil
	case KBr:
		return int(in.TargetA), 0, 0, false, nil
	case KCondBr:
		if ri[in.A] != 0 {
			return int(in.TargetA), 0, 0, false, nil
		}
		return int(in.TargetB), 0, 0, false, nil
	default:
		return 0, 0, 0, false, fmt.Errorf("interp: unknown kind %d", int(in.Kind))
	}
	return -1, 0, 0, false, nil
}

func (ip *refInterp) readU64(addr uint64) (uint64, error) {
	ip.Mem.EnsurePage(addr)
	ip.Mem.EnsurePage(addr + 7)
	return ip.Mem.ReadU64(addr)
}

func (ip *refInterp) readF64(addr uint64) (float64, error) {
	v, err := ip.readU64(addr)
	return math.Float64frombits(v), err
}

func (ip *refInterp) syscall(num int64, args []int64) (int64, error) {
	switch num {
	case sysExit:
		ip.exited = true
		if len(args) > 0 {
			ip.exitCode = args[0]
		}
		return 0, nil
	case sysWrite:
		// write(fd, buf, len) — only fd 1 supported here.
		if len(args) < 3 {
			return -1, fmt.Errorf("interp: write needs 3 args")
		}
		data, err := ip.Mem.ReadBytes(uint64(args[1]), int(args[2]))
		if err != nil {
			return -1, err
		}
		ip.out = append(ip.out, data...)
		return args[2], nil
	case sysSbrk:
		old := ip.brk
		if len(args) > 0 && args[0] > 0 {
			ip.brk += uint64(args[0])
			// Pre-fault the new region so subsequent access succeeds.
			for a := old; a < ip.brk; a += mem.PageSize {
				ip.Mem.EnsurePage(a)
			}
			ip.Mem.EnsurePage(ip.brk)
		}
		return int64(old), nil
	case sysGettime:
		// Deterministic pseudo-time: step counter in "nanoseconds".
		return ip.steps, nil
	}
	return -1, fmt.Errorf("interp: unsupported syscall %d", num)
}

func evalBin(op BinOp, a, b int64) (int64, error) {
	switch op {
	case Add:
		return a + b, nil
	case Sub:
		return a - b, nil
	case Mul:
		return a * b, nil
	case Div:
		if b == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		if a == math.MinInt64 && b == -1 {
			return math.MinInt64, nil // wrap, matching hardware
		}
		return a / b, nil
	case Rem:
		if b == 0 {
			return 0, fmt.Errorf("remainder by zero")
		}
		if a == math.MinInt64 && b == -1 {
			return 0, nil
		}
		return a % b, nil
	case And:
		return a & b, nil
	case Or:
		return a | b, nil
	case Xor:
		return a ^ b, nil
	case Shl:
		return a << (uint64(b) & 63), nil
	case Shr:
		return a >> (uint64(b) & 63), nil
	}
	return 0, fmt.Errorf("unknown binop %d", int(op))
}

func evalFBin(op FBinOp, a, b float64) float64 {
	switch op {
	case FAdd:
		return a + b
	case FSub:
		return a - b
	case FMul:
		return a * b
	case FDiv:
		return a / b
	}
	return 0
}

func evalCmp(op CmpOp, a, b int64) bool {
	switch op {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	}
	return false
}

func evalFCmp(op CmpOp, a, b float64) bool {
	switch op {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	}
	return false
}

func boolToI(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// f2i truncates like both simulated ISAs do: saturate NaN to 0 and clamp
// out-of-range values to the int64 extremes (matching ARM semantics, which
// the x86 backend is specified to emulate for cross-ISA determinism).
func f2i(f float64) int64 {
	if math.IsNaN(f) {
		return 0
	}
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	if f <= math.MinInt64 {
		return math.MinInt64
	}
	return int64(f)
}
