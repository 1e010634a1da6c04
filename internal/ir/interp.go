package ir

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"heterodc/internal/mem"
)

// Interp is a direct IR interpreter. It serves as the semantic reference:
// property tests compile random programs for both ISAs, run them on the
// machine simulator (with and without migration), and require agreement with
// this interpreter's result.
//
// The interpreter supports single-threaded programs with the "pure" syscall
// subset (exit, write, sbrk, gettime); programs that spawn threads must run
// on the full kernel.
//
// An Interp decodes each function at its first call and keeps the decoded
// form, so a module changed after the first Run needs a new Interp.
type Interp struct {
	M *Module

	Mem   *mem.Memory
	brk   uint64
	out   []byte
	steps int64
	// MaxSteps bounds execution to catch non-terminating generated programs.
	MaxSteps int64

	globalAddr map[string]uint64
	funcAddr   map[string]uint64
	// fns holds M.Funcs in order (entry i is the function at text address
	// TextBase+64i), then any callee found by name only; code is nil until
	// the function's first call.
	fns    []fnSlot
	nText  int
	frames []frame
	tlb    mem.TLB

	exited   bool
	exitCode int64
}

// fnSlot pairs a function with its decoded form.
type fnSlot struct {
	f *Func
	c *code
}

// frame is the register files of the activation at one call depth, reused
// by every activation at that depth.
type frame struct {
	ri []int64
	rf []float64
}

// Syscall numbers shared with the kernel (see internal/kernel/syscall.go).
// Duplicated here as the interpreter only understands the pure subset.
const (
	sysExit    = 1
	sysWrite   = 2
	sysSbrk    = 3
	sysGettime = 4
)

// maxDepth is the deepest call depth the interpreter runs.
const maxDepth = 512

// NewInterp prepares an interpreter: globals are laid out from mem.DataBase
// in declaration order (mirroring the linker's policy).
func NewInterp(m *Module) *Interp {
	ip := &Interp{
		M:          m,
		Mem:        mem.NewMemory(),
		brk:        mem.HeapBase,
		MaxSteps:   2_000_000_000,
		globalAddr: make(map[string]uint64),
		fns:        make([]fnSlot, len(m.Funcs)),
		nText:      len(m.Funcs),
	}
	// Functions get synthetic entry addresses so function pointers and
	// indirect calls work (matching the linker's text placement policy).
	ip.funcAddr = make(map[string]uint64, len(m.Funcs))
	for i, f := range m.Funcs {
		ip.funcAddr[f.Name] = mem.TextBase + uint64(i)*64
		ip.fns[i].f = f
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
func (ip *Interp) Output() []byte { return ip.out }

// GlobalAddr returns the interpreter's address for a global.
func (ip *Interp) GlobalAddr(name string) uint64 { return ip.globalAddr[name] }

// Run executes fn(args) and returns its integer result (0 for void).
// Execution stops early if the program calls exit; once it has, Run refuses
// and runs nothing.
func (ip *Interp) Run(fnName string, args ...int64) (int64, error) {
	if ip.exited {
		return 0, fmt.Errorf("interp: the program already exited with code %d", ip.exitCode)
	}
	f := ip.M.Func(fnName)
	if f == nil {
		return 0, fmt.Errorf("interp: no function %q", fnName)
	}
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("interp: %s wants %d args, got %d", fnName, len(f.Params), len(args))
	}
	c := ip.decoded(ip.slotOf(f))
	ri, _ := ip.enter(c, 0)
	for i, p := range f.Params {
		if !p.Type.IsFloat() { // float parameters start at zero
			ri[i] = args[i]
		}
	}
	ip.tlb.Attach(ip.Mem)
	v, _, err := ip.run(c, 0)
	if ip.exited {
		return ip.exitCode, err
	}
	return v, err
}

// slotOf returns f's index in ip.fns, adding it if it is not there.
func (ip *Interp) slotOf(f *Func) int {
	for i := range ip.fns {
		if ip.fns[i].f == f {
			return i
		}
	}
	ip.fns = append(ip.fns, fnSlot{f: f})
	return len(ip.fns) - 1
}

// decoded returns the decoded form of the function in slot i.
func (ip *Interp) decoded(i int) *code {
	if ip.fns[i].c == nil {
		c := ip.decode(ip.fns[i].f) // may add slots to ip.fns
		ip.fns[i].c = c
	}
	return ip.fns[i].c
}

// interpStackTop is the top of a fake alloca arena per depth; the
// interpreter does not model real stacks, but alloca addresses must be
// unique and stable while the frame is live.
const interpStackTop = mem.StackRegion + 64*mem.StackWindow

// zeroPage is the source every activation's allocas are zeroed from.
var zeroPage mem.Page

// allocaBase is where the allocas of an activation at depth begin.
func allocaBase(depth int) uint64 { return interpStackTop - uint64(depth+1)*mem.StackHalf }

// enter prepares the frame at depth for an activation of c: both register
// files cleared and every alloca slot zeroed, so programs see deterministic
// stack contents.
func (ip *Interp) enter(c *code, depth int) ([]int64, []float64) {
	if depth == len(ip.frames) {
		ip.frames = append(ip.frames, frame{})
	}
	fr := &ip.frames[depth]
	if cap(fr.ri) < c.nregs {
		fr.ri, fr.rf = make([]int64, c.nregs), make([]float64, c.nregs)
	}
	fr.ri, fr.rf = fr.ri[:c.nregs], fr.rf[:c.nregs]
	clear(fr.ri)
	clear(fr.rf)
	base := allocaBase(depth)
	for off := uint64(0); off < c.allocaBytes; off += mem.PageSize {
		ip.Mem.WriteBytes(base+off, zeroPage[:min(c.allocaBytes-off, mem.PageSize)])
	}
	return fr.ri, fr.rf
}

// call runs the function in slot s at depth with the arguments args, named
// in the caller's register files ri and rf, whose types are types. An
// argument reaches a parameter only through the register file both share;
// a parameter of the other file starts at zero.
func (ip *Interp) call(s int, args []VReg, types []Type, ri []int64, rf []float64, depth int) (int64, float64, error) {
	if depth > maxDepth {
		return 0, 0, fmt.Errorf("interp: call depth exceeded in %s", ip.fns[s].f.Name)
	}
	c := ip.decoded(s)
	ci, cf := ip.enter(c, depth)
	for i, p := range c.f.Params {
		a := args[i]
		if types[a].IsFloat() {
			if p.Type.IsFloat() {
				cf[i] = rf[a]
			}
		} else if !p.Type.IsFloat() {
			ci[i] = ri[a]
		}
	}
	return ip.run(c, depth)
}

// run executes the activation of c at depth, whose frame enter prepared.
// The step counter lives in a local and is written back to ip.steps before
// every call, syscall, return and error, so gettime, the callee and the
// step limit see exactly the count so far.
func (ip *Interp) run(c *code, depth int) (int64, float64, error) {
	ops := c.ops
	ri, rf := ip.frames[depth].ri, ip.frames[depth].rf
	tlb := &ip.tlb
	base := allocaBase(depth)
	steps, limit := ip.steps, ip.MaxSteps
	var err error
	pc := 0
loop:
	for {
		o := &ops[pc]
		pc++
		steps++
		if steps > limit {
			ip.steps = steps
			return 0, 0, fmt.Errorf("interp: step limit exceeded in %s", c.f.Name)
		}
		switch o.kind {
		case opConst:
			ri[o.dst] = o.imm
		case opFConst:
			rf[o.dst] = math.Float64frombits(uint64(o.imm))
		case opMovI:
			ri[o.dst] = ri[o.a]
		case opMovF:
			rf[o.dst] = rf[o.a]

		case opAdd:
			ri[o.dst] = ri[o.a] + ri[o.b]
		case opSub:
			ri[o.dst] = ri[o.a] - ri[o.b]
		case opMul:
			ri[o.dst] = ri[o.a] * ri[o.b]
		case opDiv:
			if ri[o.b] == 0 {
				err = errDivZero
				break loop
			}
			ri[o.dst] = ri[o.a] / ri[o.b] // MinInt64 / -1 wraps, as on hardware
		case opRem:
			if ri[o.b] == 0 {
				err = errRemZero
				break loop
			}
			ri[o.dst] = ri[o.a] % ri[o.b]
		case opAnd:
			ri[o.dst] = ri[o.a] & ri[o.b]
		case opOr:
			ri[o.dst] = ri[o.a] | ri[o.b]
		case opXor:
			ri[o.dst] = ri[o.a] ^ ri[o.b]
		case opShl:
			ri[o.dst] = ri[o.a] << (uint64(ri[o.b]) & 63)
		case opShr:
			ri[o.dst] = ri[o.a] >> (uint64(ri[o.b]) & 63)

		case opAddImm:
			ri[o.dst] = ri[o.a] + o.imm
		case opSubImm:
			ri[o.dst] = ri[o.a] - o.imm
		case opMulImm:
			ri[o.dst] = ri[o.a] * o.imm
		case opDivImm:
			if o.imm == 0 {
				err = errDivZero
				break loop
			}
			ri[o.dst] = ri[o.a] / o.imm
		case opRemImm:
			if o.imm == 0 {
				err = errRemZero
				break loop
			}
			ri[o.dst] = ri[o.a] % o.imm
		case opAndImm:
			ri[o.dst] = ri[o.a] & o.imm
		case opOrImm:
			ri[o.dst] = ri[o.a] | o.imm
		case opXorImm:
			ri[o.dst] = ri[o.a] ^ o.imm
		case opShlImm:
			ri[o.dst] = ri[o.a] << (uint64(o.imm) & 63)
		case opShrImm:
			ri[o.dst] = ri[o.a] >> (uint64(o.imm) & 63)

		case opFAdd:
			rf[o.dst] = rf[o.a] + rf[o.b]
		case opFSub:
			rf[o.dst] = rf[o.a] - rf[o.b]
		case opFMul:
			rf[o.dst] = rf[o.a] * rf[o.b]
		case opFDiv:
			rf[o.dst] = rf[o.a] / rf[o.b]
		case opFNeg:
			rf[o.dst] = -rf[o.a]
		case opFSqrt:
			rf[o.dst] = math.Sqrt(rf[o.a])

		case opEq:
			ri[o.dst] = b2i(ri[o.a] == ri[o.b])
		case opNe:
			ri[o.dst] = b2i(ri[o.a] != ri[o.b])
		case opLt:
			ri[o.dst] = b2i(ri[o.a] < ri[o.b])
		case opLe:
			ri[o.dst] = b2i(ri[o.a] <= ri[o.b])
		case opGt:
			ri[o.dst] = b2i(ri[o.a] > ri[o.b])
		case opGe:
			ri[o.dst] = b2i(ri[o.a] >= ri[o.b])
		case opFEq:
			ri[o.dst] = b2i(rf[o.a] == rf[o.b])
		case opFNe:
			ri[o.dst] = b2i(rf[o.a] != rf[o.b])
		case opFLt:
			ri[o.dst] = b2i(rf[o.a] < rf[o.b])
		case opFLe:
			ri[o.dst] = b2i(rf[o.a] <= rf[o.b])
		case opFGt:
			ri[o.dst] = b2i(rf[o.a] > rf[o.b])
		case opFGe:
			ri[o.dst] = b2i(rf[o.a] >= rf[o.b])

		case opI2F:
			rf[o.dst] = float64(ri[o.a])
		case opF2I:
			ri[o.dst] = f2i(rf[o.a])

		// A word inside one page whose translation the TLB holds is read or
		// written in place; anything else takes the demand-zero path.
		case opLoadI:
			addr := uint64(ri[o.a] + o.imm)
			if p, off := tlb.ReadHit(addr), addr&(mem.PageSize-1); p != nil && off <= mem.PageSize-8 {
				ri[o.dst] = int64(binary.LittleEndian.Uint64(p[off : off+8 : off+8]))
				break
			}
			ri[o.dst] = int64(ip.load(addr))
		case opLoadF:
			addr := uint64(ri[o.a] + o.imm)
			if p, off := tlb.ReadHit(addr), addr&(mem.PageSize-1); p != nil && off <= mem.PageSize-8 {
				rf[o.dst] = math.Float64frombits(binary.LittleEndian.Uint64(p[off : off+8 : off+8]))
				break
			}
			rf[o.dst] = math.Float64frombits(ip.load(addr))
		case opStoreI:
			addr := uint64(ri[o.a] + o.imm)
			if p, off := tlb.WriteHit(addr), addr&(mem.PageSize-1); p != nil && off <= mem.PageSize-8 {
				binary.LittleEndian.PutUint64(p[off:off+8:off+8], uint64(ri[o.b]))
			} else if err = ip.store(addr, uint64(ri[o.b])); err != nil {
				break loop
			}
		case opStoreF:
			addr := uint64(ri[o.a] + o.imm)
			if p, off := tlb.WriteHit(addr), addr&(mem.PageSize-1); p != nil && off <= mem.PageSize-8 {
				binary.LittleEndian.PutUint64(p[off:off+8:off+8], math.Float64bits(rf[o.b]))
			} else if err = ip.store(addr, math.Float64bits(rf[o.b])); err != nil {
				break loop
			}
		case opLoadB:
			addr := uint64(ri[o.a] + o.imm)
			if p := tlb.ReadHit(addr); p != nil {
				ri[o.dst] = int64(p[addr&(mem.PageSize-1)])
				break
			}
			ip.Mem.EnsurePage(addr)
			b, _ := tlb.ReadU8(addr) // a present page reads
			ri[o.dst] = int64(b)
		case opStoreB:
			addr := uint64(ri[o.a] + o.imm)
			if p := tlb.WriteHit(addr); p != nil {
				p[addr&(mem.PageSize-1)] = byte(ri[o.b])
				break
			}
			ip.Mem.EnsurePage(addr)
			if !tlb.WriteU8(addr, byte(ri[o.b])) {
				err = ip.Mem.WriteU8(addr, byte(ri[o.b]))
				break loop
			}
		case opAtomicAdd:
			addr := uint64(ri[o.a] + o.imm)
			old := ip.load(addr)
			if err = ip.Mem.WriteU64(addr, uint64(int64(old)+ri[o.b])); err != nil {
				break loop
			}
			ri[o.dst] = int64(old)
		case opAtomicCAS:
			addr := uint64(ri[o.a] + o.imm)
			old := ip.load(addr)
			if int64(old) == ri[o.b] {
				if err = ip.Mem.WriteU64(addr, uint64(ri[o.in.C])); err != nil {
					break loop
				}
			}
			ri[o.dst] = int64(old)

		case opAllocaAddr:
			ri[o.dst] = int64(base + uint64(o.imm))

		case opCall, opCallInd:
			s := int(o.a) // opCall: the callee's slot
			if o.kind == opCallInd {
				target := uint64(ri[o.a])
				off := target - mem.TextBase
				if off%64 != 0 || off/64 >= uint64(ip.nText) {
					err = fmt.Errorf("interp: indirect call to non-function address %#x", target)
					break loop
				}
				s = int(off / 64)
				if len(o.in.Args) != len(ip.fns[s].f.Params) {
					err = fmt.Errorf("interp: indirect call arity mismatch for %s", ip.fns[s].f.Name)
					break loop
				}
			}
			ip.steps = steps
			var vi int64
			var vf float64
			// The callee shares ip.tlb and re-attaches it after its own
			// syscalls, so the TLB is still attached to ip.Mem here.
			vi, vf, err = ip.call(s, o.in.Args, c.f.vregTypes, ri, rf, depth+1)
			steps = ip.steps
			if err != nil {
				break loop
			}
			if ip.exited {
				return 0, 0, nil
			}
			if o.b == resultF {
				rf[o.dst] = vf
			} else if o.b == resultI {
				ri[o.dst] = vi
			}
		case opSyscall:
			ip.steps = steps
			var v int64
			v, err = ip.syscall(o.in, ri)
			tlb.Attach(ip.Mem)
			if err != nil {
				break loop
			}
			ri[o.dst] = v
			if ip.exited {
				return 0, 0, nil
			}

		case opRetVoid:
			ip.steps = steps
			return 0, 0, nil
		case opRetI:
			ip.steps = steps
			return ri[o.a], 0, nil
		case opRetF:
			ip.steps = steps
			return 0, rf[o.a], nil
		case opBr:
			pc = int(o.imm)
		case opCondBr:
			if ri[o.a] != 0 {
				pc = int(o.imm)
			} else {
				pc = int(o.b)
			}

		case opBad:
			err = c.bad[o.imm]
			break loop
		}
	}
	ip.steps = steps
	return 0, 0, c.wrap(pc-1, err)
}

var (
	errDivZero = errors.New("division by zero")
	errRemZero = errors.New("remainder by zero")
)

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// load reads the word at addr, demand-zeroing both pages it touches; a
// read of present pages cannot fault.
func (ip *Interp) load(addr uint64) uint64 {
	ip.Mem.EnsurePage(addr)
	ip.Mem.EnsurePage(addr + 7)
	v, _ := ip.tlb.ReadU64(addr)
	return v
}

// store writes the word at addr, demand-zeroing both pages it touches; it
// faults only on a read-only page.
func (ip *Interp) store(addr, v uint64) error {
	ip.Mem.EnsurePage(addr)
	ip.Mem.EnsurePage(addr + 7)
	if ip.tlb.WriteU64(addr, v) {
		return nil
	}
	return ip.Mem.WriteU64(addr, v)
}

func (ip *Interp) syscall(in *Instr, ri []int64) (int64, error) {
	args := in.Args
	switch in.Imm {
	case sysExit:
		ip.exited = true
		if len(args) > 0 {
			ip.exitCode = ri[args[0]]
		}
		return 0, nil
	case sysWrite:
		// write(fd, buf, len) — only fd 1 supported here.
		if len(args) < 3 {
			return -1, fmt.Errorf("interp: write needs 3 args")
		}
		return ip.write(uint64(ri[args[1]]), ri[args[2]])
	case sysSbrk:
		// The new region is demand-zero, like every page loads and stores
		// touch; write zeroes what it reads of it.
		old := ip.brk
		if len(args) > 0 && ri[args[0]] > 0 {
			ip.brk += uint64(ri[args[0]])
		}
		return int64(old), nil
	case sysGettime:
		// Deterministic pseudo-time: step counter in "nanoseconds".
		return ip.steps, nil
	}
	return -1, fmt.Errorf("interp: unsupported syscall %d", in.Imm)
}

// write appends n bytes at addr to the output. Pages of the heap — from
// HeapBase through the page holding the break, once sbrk has moved it —
// read as zeros until touched; any other absent page faults.
func (ip *Interp) write(addr uint64, n int64) (int64, error) {
	if n < 0 {
		return -1, fmt.Errorf("interp: write of negative length %d", n)
	}
	if ip.brk > mem.HeapBase {
		lo, hi := max(addr, mem.HeapBase), min(addr+uint64(n), mem.PageBase(ip.brk)+mem.PageSize)
		for a := mem.PageBase(lo); a < hi; a += mem.PageSize {
			ip.Mem.EnsurePage(a)
		}
	}
	data, err := ip.Mem.ReadBytes(addr, int(n))
	if err != nil {
		return -1, err
	}
	ip.out = append(ip.out, data...)
	return n, nil
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

// opKind is a decoded operation: an IR kind specialised by register file
// and operator, so the loop never consults a type or an operator field.
type opKind uint8

const (
	opConst  opKind = iota // ri[dst] = imm (also a resolved global or function address)
	opFConst               // rf[dst] = float bits imm
	opMovI
	opMovF

	// ri[dst] = ri[a] <op> ri[b], in BinOp order.
	opAdd
	opSub
	opMul
	opDiv
	opRem
	opAnd
	opOr
	opXor
	opShl
	opShr

	// ri[dst] = ri[a] <op> imm, in BinOp order.
	opAddImm
	opSubImm
	opMulImm
	opDivImm
	opRemImm
	opAndImm
	opOrImm
	opXorImm
	opShlImm
	opShrImm

	// rf[dst] = rf[a] <op> rf[b], in FBinOp order.
	opFAdd
	opFSub
	opFMul
	opFDiv
	opFNeg
	opFSqrt

	// ri[dst] = ri[a] <cmp> ri[b], then the float forms; both in CmpOp order.
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opFEq
	opFNe
	opFLt
	opFLe
	opFGt
	opFGe

	opI2F
	opF2I
	opLoadI  // ri[dst] = *(ri[a] + imm)
	opLoadF  // rf[dst] = *(ri[a] + imm)
	opStoreI // *(ri[a] + imm) = ri[b]
	opStoreF // *(ri[a] + imm) = rf[b]
	opLoadB
	opStoreB
	opAtomicAdd
	opAtomicCAS  // new value in in.C
	opAllocaAddr // ri[dst] = this activation's alloca base + imm

	opCall    // a: the callee's slot in Interp.fns; b: resultI, resultF or none
	opCallInd // a: the register holding the callee's address; b as opCall
	opSyscall // number and arguments in in
	opRetVoid
	opRetI
	opRetF
	opBr     // pc = imm
	opCondBr // pc = imm if ri[a] != 0, else b
	opBad    // malformed IR: fail with code.bad[imm]
)

// Where a call's result goes (op.b of opCall and opCallInd).
const (
	resultNone = iota
	resultI
	resultF
)

// op is one decoded IR instruction. Registers and targets are int32 (a
// function's registers and ops are counted in int); in keeps the
// instruction for call arguments, syscalls and the rare operands.
type op struct {
	kind      opKind
	dst, a, b int32
	imm       int64
	in        *Instr
}

// code is one function decoded: its blocks' instructions laid end to end,
// each branch target an op index.
type code struct {
	f   *Func
	ops []op
	// starts[i] is the index of block i's first op.
	starts []int32
	// nregs sizes the register files; allocaBytes is the frame's alloca
	// arena, slot after slot.
	nregs       int
	allocaBytes uint64
	// bad holds the errors opBad ops report.
	bad []error
}

// wrap names the function and block of the op at pc in err, as every error
// leaving an activation is named.
func (c *code) wrap(pc int, err error) error {
	if len(c.f.Blocks) == 0 {
		return fmt.Errorf("%s: %w", c.f.Name, err)
	}
	b := sort.Search(len(c.starts), func(i int) bool { return int(c.starts[i]) > pc }) - 1
	return fmt.Errorf("%s/%s: %w", c.f.Name, c.f.Blocks[b].Name, err)
}

// decode lays out f's blocks as ops. Malformed IR — an undefined callee, a
// call with too few arguments, a branch target or register out of range, a
// block without a terminator — decodes to an opBad that fails when reached,
// so a run that never reaches it is unaffected.
func (ip *Interp) decode(f *Func) *code {
	c := &code{f: f, nregs: max(len(f.vregTypes), len(f.Params))}
	n := 0
	c.starts = make([]int32, len(f.Blocks))
	for i, blk := range f.Blocks {
		c.starts[i] = int32(n)
		n += len(blk.Instrs)
		if !terminated(blk) {
			n++
		}
	}
	if len(f.Blocks) == 0 {
		n = 1
	}
	c.ops = make([]op, 0, n)

	allocaOff := make([]uint64, len(f.AllocaSizes))
	for i, sz := range f.AllocaSizes {
		if sz < 0 {
			c.ops = append(c.ops, c.fail(nil, "interp: alloca slot %d has negative size %d", i, sz))
			c.allocaBytes = 0
			return c
		}
		allocaOff[i] = c.allocaBytes
		c.allocaBytes += uint64(sz)
	}

	if len(f.Blocks) == 0 {
		c.ops = append(c.ops, c.fail(nil, "interp: function has no blocks"))
	}
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			c.ops = append(c.ops, ip.decodeInstr(c, &blk.Instrs[i], allocaOff))
		}
		if !terminated(blk) {
			c.ops = append(c.ops, c.fail(nil, "interp: block does not end in a terminator"))
		}
	}
	return c
}

func terminated(b *Block) bool {
	return len(b.Instrs) > 0 && b.Instrs[len(b.Instrs)-1].IsTerminator()
}

// fail returns an opBad reporting the formatted error.
func (c *code) fail(in *Instr, format string, args ...any) op {
	c.bad = append(c.bad, fmt.Errorf(format, args...))
	return op{kind: opBad, imm: int64(len(c.bad) - 1), in: in}
}

// regs reports whether every register names one of the function's.
func (c *code) regs(vs ...VReg) bool {
	for _, v := range vs {
		if v < 0 || int(v) >= len(c.f.vregTypes) {
			return false
		}
	}
	return true
}

func (ip *Interp) decodeInstr(c *code, in *Instr, allocaOff []uint64) op {
	f := c.f
	o := op{dst: int32(in.Dst), a: int32(in.A), b: int32(in.B), imm: in.Imm, in: in}
	isF := func(v VReg) bool { return f.vregTypes[v].IsFloat() }
	badReg := func() op { return c.fail(in, "interp: register out of range in %s", formatInstr(in)) }
	pick := func(float bool, ifInt, ifFloat opKind) opKind {
		if float {
			return ifFloat
		}
		return ifInt
	}
	target := func(t int32) (int32, bool) {
		if t < 0 || int(t) >= len(f.Blocks) {
			return 0, false
		}
		return c.starts[t], true
	}
	// result sets where a call's value goes; ok is false for a bad Dst.
	result := func() bool {
		o.b = resultNone
		if in.Dst == NoV {
			return true
		}
		if !c.regs(in.Dst) {
			return false
		}
		o.b = resultI
		if isF(in.Dst) {
			o.b = resultF
		}
		return true
	}

	switch in.Kind {
	case KConst, KFConst, KGlobalAddr, KAllocaAddr:
		if !c.regs(in.Dst) {
			return badReg()
		}
		switch in.Kind {
		case KConst:
			o.kind = opConst
		case KFConst:
			o.kind, o.imm = opFConst, int64(math.Float64bits(in.FImm))
		case KGlobalAddr:
			a, ok := ip.globalAddr[in.Sym]
			if !ok {
				if a, ok = ip.funcAddr[in.Sym]; !ok {
					return c.fail(in, "interp: no address for symbol %q", in.Sym)
				}
			}
			o.kind, o.imm = opConst, int64(a)+in.Imm
		case KAllocaAddr:
			if in.Alloca < 0 || int(in.Alloca) >= len(allocaOff) {
				return c.fail(in, "interp: no alloca slot %d", in.Alloca)
			}
			o.kind, o.imm = opAllocaAddr, int64(allocaOff[in.Alloca])
		}
	case KMov, KFNeg, KFSqrt, KI2F, KF2I, KLoad, KLoadB:
		if !c.regs(in.Dst, in.A) {
			return badReg()
		}
		switch in.Kind {
		case KMov:
			o.kind = pick(isF(in.Dst), opMovI, opMovF)
		case KFNeg:
			o.kind = opFNeg
		case KFSqrt:
			o.kind = opFSqrt
		case KI2F:
			o.kind = opI2F
		case KF2I:
			o.kind = opF2I
		case KLoad:
			o.kind = pick(isF(in.Dst), opLoadI, opLoadF)
		case KLoadB:
			o.kind = opLoadB
		}
	case KStore, KStoreB:
		if !c.regs(in.A, in.B) {
			return badReg()
		}
		o.kind = opStoreB
		if in.Kind == KStore {
			o.kind = pick(isF(in.B), opStoreI, opStoreF)
		}
	case KBinImm:
		if !c.regs(in.Dst, in.A) {
			return badReg()
		}
		if in.Bin < Add || in.Bin > Shr {
			return c.fail(in, "unknown binop %d", int(in.Bin))
		}
		o.kind = opAddImm + opKind(in.Bin)
	case KBin, KFBin, KCmp, KFCmp, KAtomicAdd:
		if !c.regs(in.Dst, in.A, in.B) {
			return badReg()
		}
		switch in.Kind {
		case KBin:
			if in.Bin < Add || in.Bin > Shr {
				return c.fail(in, "unknown binop %d", int(in.Bin))
			}
			o.kind = opAdd + opKind(in.Bin)
		case KFBin:
			if in.FBin < FAdd || in.FBin > FDiv {
				return c.fail(in, "interp: unknown float binop %d", int(in.FBin))
			}
			o.kind = opFAdd + opKind(in.FBin)
		case KCmp, KFCmp:
			if in.Cmp < Eq || in.Cmp > Ge {
				return c.fail(in, "interp: unknown comparison %d", int(in.Cmp))
			}
			o.kind = pick(in.Kind == KFCmp, opEq, opFEq) + opKind(in.Cmp)
		case KAtomicAdd:
			o.kind = opAtomicAdd
		}
	case KAtomicCAS:
		if !c.regs(in.Dst, in.A, in.B, in.C) {
			return badReg()
		}
		o.kind = opAtomicCAS
	case KCall:
		callee := ip.M.Func(in.Sym)
		if callee == nil {
			return c.fail(in, "interp: call to undefined function %q", in.Sym)
		}
		if len(in.Args) < len(callee.Params) {
			return c.fail(in, "interp: call to %s passes %d args, wants %d", in.Sym, len(in.Args), len(callee.Params))
		}
		if !c.regs(in.Args...) || !result() {
			return badReg()
		}
		o.kind, o.a = opCall, int32(ip.slotOf(callee))
	case KCallInd:
		if !c.regs(in.A) || !c.regs(in.Args...) || !result() {
			return badReg()
		}
		o.kind = opCallInd
	case KSyscall:
		if !c.regs(in.Dst) || !c.regs(in.Args...) {
			return badReg()
		}
		o.kind = opSyscall
	case KRet:
		if in.A == NoV {
			o.kind = opRetVoid
			break
		}
		if !c.regs(in.A) {
			return badReg()
		}
		o.kind = pick(isF(in.A), opRetI, opRetF)
	case KBr, KCondBr:
		t, ok := target(in.TargetA)
		if !ok {
			return c.fail(in, "interp: branch target %d out of range (%d blocks)", in.TargetA, len(f.Blocks))
		}
		o.kind, o.imm = opBr, int64(t)
		if in.Kind == KCondBr {
			e, ok := target(in.TargetB)
			if !ok {
				return c.fail(in, "interp: branch target %d out of range (%d blocks)", in.TargetB, len(f.Blocks))
			}
			if !c.regs(in.A) {
				return badReg()
			}
			o.kind, o.b = opCondBr, e
		}
	default:
		return c.fail(in, "interp: unknown kind %d", int(in.Kind))
	}
	return o
}
