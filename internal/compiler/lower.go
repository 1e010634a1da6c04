package compiler

import (
	"fmt"
	"math"
	"math/bits"

	"heterodc/internal/ir"
	"heterodc/internal/isa"
	"heterodc/internal/stackmap"
)

// AsmFunc is one function lowered to one ISA's machine code, before layout:
// addresses are assigned by the linker.
type AsmFunc struct {
	Name string
	Arch isa.Arch
	// Code[i].Size is the encoded size of each instruction, so its offset
	// from the function entry is the sum of the sizes before it.
	Code []isa.Instr
	// Size is the total encoded size in bytes.
	Size int64
	// Info is the stackmap/unwind metadata (Entry, Size and each call
	// site's RetPC are filled at link time). Every call-like instruction
	// of Code carries the CallSiteID of its record in Info.CallSites.
	Info *stackmap.FuncInfo
}

// lowerer holds the state of lowering one module's functions. A
// compilation keeps one and reuses its arrays from function to function.
//
// Everything a lowered function keeps comes from the build's own storage,
// in two ways. What the module's counts size exactly — the AsmFunc and
// FuncInfo records, the call-site records and the alloca tables — is carved
// from slabs that newLowerer allocates once. What only lowering sizes — the
// code, the live values, the save slots and the stack parameters — is
// gathered on stacks and copied out by flush, in one exact-size array per
// kind, for every function lowered since the last flush.
type lowerer struct {
	m    *ir.Module
	f    *ir.Func
	lv   liveness // of f
	fr   frame
	desc *isa.Desc

	// out holds the code of the pending functions one after another; the
	// current function's begins at base.
	out        []isa.Instr
	base       int
	blockStart []int
	// branchFixups lists the emitted branch instructions whose Target is
	// still to be set to the first instruction of an IR block.
	branchFixups []branchFixup

	// calls counts the call-like instructions lowered so far, which makes
	// it the index of the next one's set in lv and its record in sites.
	calls int
	sites []stackmap.CallSite

	// allocaSizes and allocaPtr are f's alloca tables, which both ISAs'
	// FuncInfos share.
	allocaSizes []int64
	allocaPtr   []bool

	funcSlab   []AsmFunc
	infoSlab   []stackmap.FuncInfo
	siteSlab   []stackmap.CallSite
	sizeSlab   []int64
	ptrSlab    []bool
	offsetSlab []int64

	// The stacks flush copies out, with what the pending functions need to
	// find their parts: liveEnd[k] is where the k-th pending call site's
	// live values end.
	live    []stackmap.LiveValue
	liveEnd []int
	saves   []stackmap.SavedReg
	params  []stackmap.StackParam
	pending []pendingFunc

	// types, argRegs and argStack are scratch for argLocs.
	types    []ir.Type
	argRegs  []isa.Reg
	argStack []int
}

// pendingFunc is a lowered function whose code, save slots and stack
// parameters end at these heights of the lowerer's stacks; each begins
// where the previous pending function's ends.
type pendingFunc struct {
	af                  *AsmFunc
	code, saves, params int
}

// branchFixup says that the branch at out[at] targets IR block block.
type branchFixup struct {
	at    int
	block int32
}

// maxCodeIndex bounds a function's instruction count and its call-site
// IDs, which isa.Instr holds as int32 (Target and CallSiteID). A variable
// so that tests can reach it with small functions.
var maxCodeIndex = math.MaxInt32

// newLowerer returns a lowerer for m's functions, with slabs sized from
// m's counts: one AsmFunc and FuncInfo per function and ISA, one call-site
// record per call-like instruction and ISA, one alloca size and pointer
// flag per slot and one offset per slot and ISA. The code stack holds three
// machine instructions per IR instruction of m's largest function: the NPB
// programs' largest functions lower to 2.7 to 2.9 per IR instruction on the
// longer ISA, so it is allocated once.
func newLowerer(m *ir.Module) *lowerer {
	largest, sites, allocas := 0, 0, 0
	for _, f := range m.Funcs {
		largest = max(largest, irLen(f))
		sites += f.NumCallSites
		allocas += len(f.AllocaSizes)
	}
	n := len(m.Funcs)
	return &lowerer{
		m:          m,
		out:        make([]isa.Instr, 0, 3*largest+16),
		funcSlab:   make([]AsmFunc, isa.NumArch*n),
		infoSlab:   make([]stackmap.FuncInfo, isa.NumArch*n),
		siteSlab:   make([]stackmap.CallSite, isa.NumArch*sites),
		sizeSlab:   make([]int64, allocas),
		ptrSlab:    make([]bool, allocas),
		offsetSlab: make([]int64, isa.NumArch*allocas),
	}
}

// irLen is f's IR instruction count.
func irLen(f *ir.Func) int {
	n := 0
	for _, blk := range f.Blocks {
		n += len(blk.Instrs)
	}
	return n
}

// take carves n values from *slab, nil when n is 0. A slab sized from the
// module's counts does not run short; if one does, the values get an
// array of their own.
func take[T any](slab *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	if n > len(*slab) {
		return make([]T, n)
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// begin prepares to lower f for every ISA: its liveness, and the alloca
// tables the ISAs share.
func (lo *lowerer) begin(f *ir.Func) {
	lo.lv.compute(f)
	lo.allocaSizes = take(&lo.sizeSlab, len(f.AllocaSizes))
	copy(lo.allocaSizes, f.AllocaSizes)
	lo.allocaPtr = take(&lo.ptrSlab, len(f.AllocaPtr))
	copy(lo.allocaPtr, f.AllocaPtr)
}

// lowerFunc compiles f for desc's architecture after begin(f). The
// AsmFunc's variable-size parts are filled in by the next flush.
func (lo *lowerer) lowerFunc(f *ir.Func, desc *isa.Desc) (*AsmFunc, error) {
	if len(lo.pending) > 0 && len(lo.out)+3*irLen(f)+16 > cap(lo.out) {
		lo.flush()
	}
	lo.f, lo.desc = f, desc
	lo.base = len(lo.out)
	lo.calls = 0
	lo.sites = take(&lo.siteSlab, lo.lv.ncalls)
	if f.Name == MigrateCheckFunc {
		// The migration-point body is hand-scheduled per ISA (as the real
		// runtime's check is): the hot no-request path runs frameless in
		// scratch registers — a call, two loads and a branch — and only the
		// cold migrate path builds an unwindable frame.
		return lo.lowerMigrateCheck(), nil
	}
	lo.fr.build(lo.m, f, &lo.lv, desc)
	lo.blockStart = grow(lo.blockStart, len(f.Blocks))
	lo.branchFixups = lo.branchFixups[:0]
	lo.prologue()
	lo.moveParamsIn()
	for bi, blk := range f.Blocks {
		lo.blockStart[bi] = len(lo.out) - lo.base
		// The entry block's code begins after the prologue; blockStart[0]
		// points at the first post-prologue instruction, which is correct
		// because nothing branches to the entry block's prologue.
		for ii := range blk.Instrs {
			if err := lo.instr(&blk.Instrs[ii]); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", f.Name, blk.Name, err)
			}
		}
	}
	if n := len(lo.out) - lo.base; n > maxCodeIndex {
		return nil, fmt.Errorf("%s: %d instructions, more than a branch target can index (%d)", f.Name, n, maxCodeIndex)
	}
	// Patch intra-function branch targets from block indices to instruction
	// indices.
	for _, fx := range lo.branchFixups {
		lo.out[fx.at].Target = int32(lo.blockStart[fx.block])
	}

	af := lo.newFunc()
	info := af.Info
	info.FrameSize = lo.fr.frameSize
	info.AllocaSizes, info.AllocaPtr = lo.allocaSizes, lo.allocaPtr
	info.AllocaOffsets = take(&lo.offsetSlab, len(lo.fr.allocaOff))
	copy(info.AllocaOffsets, lo.fr.allocaOff)
	info.IsEntry, info.NoMigrate = f.IsEntry, f.NoMigrate
	info.NumStackArgBytes = lo.fr.outArgBytes
	for _, s := range lo.fr.saveRegs {
		lo.saves = append(lo.saves, stackmap.SavedReg{Reg: s.reg, IsFloat: s.isFloat, Off: s.off})
	}
	_, stackIdx := lo.paramLocs()
	for i, si := range stackIdx {
		if si >= 0 {
			lo.params = append(lo.params, stackmap.StackParam{Param: i, Off: 16 + int64(si)*8})
		}
	}
	lo.pend(af)
	return af, nil
}

// newFunc carves the current function's AsmFunc and FuncInfo and sizes its
// code.
func (lo *lowerer) newFunc() *AsmFunc {
	af := &take(&lo.funcSlab, 1)[0]
	*af = AsmFunc{Name: lo.f.Name, Arch: lo.desc.Arch, Info: &take(&lo.infoSlab, 1)[0]}
	*af.Info = stackmap.FuncInfo{Name: lo.f.Name, CallSites: lo.sites}
	code := lo.out[lo.base:]
	for i := range code {
		code[i].Size = isa.EncodedSize(lo.desc.Arch, &code[i])
		af.Size += int64(code[i].Size)
	}
	return af
}

// pend queues af, whose code, save slots and stack parameters are the
// stacks' tops, for the next flush.
func (lo *lowerer) pend(af *AsmFunc) {
	lo.pending = append(lo.pending, pendingFunc{af: af, code: len(lo.out), saves: len(lo.saves), params: len(lo.params)})
}

// flush copies the stacks into exact-size arrays, points every pending
// function at its parts and empties the stacks.
func (lo *lowerer) flush() {
	code, live := exact(lo.out), exact(lo.live)
	saves, params := exact(lo.saves), exact(lo.params)
	var c, s, p, l, k int
	for _, pf := range lo.pending {
		pf.af.Code = part(code, c, pf.code)
		info := pf.af.Info
		info.Saves, info.StackParams = part(saves, s, pf.saves), part(params, p, pf.params)
		for i := range info.CallSites {
			end := lo.liveEnd[k]
			info.CallSites[i].Live = part(live, l, end)
			l, k = end, k+1
		}
		c, s, p = pf.code, pf.saves, pf.params
	}
	lo.out, lo.live, lo.liveEnd = lo.out[:0], lo.live[:0], lo.liveEnd[:0]
	lo.saves, lo.params, lo.pending = lo.saves[:0], lo.params[:0], lo.pending[:0]
}

// exact returns a copy of s in an array of exactly its length, nil when s
// is empty.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// part returns s[from:to] with no room to grow, nil when it is empty.
func part[T any](s []T, from, to int) []T {
	if from == to {
		return nil
	}
	return s[from:to:to]
}

// paramLocs returns argLocs for the function's own parameters.
func (lo *lowerer) paramLocs() ([]isa.Reg, []int) {
	lo.types = lo.types[:0]
	for _, p := range lo.f.Params {
		lo.types = append(lo.types, p.Type)
	}
	return lo.argLocs(lo.types)
}

// e appends an instruction and returns its index.
func (lo *lowerer) e(in isa.Instr) int {
	lo.out = append(lo.out, in)
	return len(lo.out) - 1
}

// branch appends in, a branch to IR block block, and records it for
// patching once every block's first instruction is known.
func (lo *lowerer) branch(in isa.Instr, block int32) {
	lo.branchFixups = append(lo.branchFixups, branchFixup{at: lo.e(in), block: block})
}

// --- Prologue / epilogue ---------------------------------------------------

func (lo *lowerer) prologue() {
	d := lo.desc
	if d.Arch == isa.X86 {
		// CALL already pushed the return address.
		lo.e(isa.Instr{Op: isa.OpPush, Rs1: d.FP})
		lo.e(isa.Instr{Op: isa.OpMov, Rd: d.FP, Rs1: d.SP})
		if lo.fr.frameSize != 0 {
			lo.e(isa.Instr{Op: isa.OpAddI, Rd: d.SP, Rs1: d.SP, Imm: -lo.fr.frameSize})
		}
	} else {
		total := lo.fr.frameSize + 16
		lo.e(isa.Instr{Op: isa.OpAddI, Rd: d.SP, Rs1: d.SP, Imm: -total})
		lo.e(isa.Instr{Op: isa.OpSt, Rs1: d.SP, Imm: lo.fr.frameSize, Rs2: d.FP})
		lo.e(isa.Instr{Op: isa.OpSt, Rs1: d.SP, Imm: lo.fr.frameSize + 8, Rs2: d.LR})
		lo.e(isa.Instr{Op: isa.OpAddI, Rd: d.FP, Rs1: d.SP, Imm: lo.fr.frameSize})
	}
	// Save used callee-saved registers at their FP-relative slots.
	for _, s := range lo.fr.saveRegs {
		if s.isFloat {
			lo.e(isa.Instr{Op: isa.OpFSt, Rs1: lo.desc.FP, Imm: s.off, Rs2: s.reg})
		} else {
			lo.e(isa.Instr{Op: isa.OpSt, Rs1: lo.desc.FP, Imm: s.off, Rs2: s.reg})
		}
	}
}

func (lo *lowerer) epilogue() {
	d := lo.desc
	for _, s := range lo.fr.saveRegs {
		if s.isFloat {
			lo.e(isa.Instr{Op: isa.OpFLd, Rd: s.reg, Rs1: d.FP, Imm: s.off})
		} else {
			lo.e(isa.Instr{Op: isa.OpLd, Rd: s.reg, Rs1: d.FP, Imm: s.off})
		}
	}
	if d.Arch == isa.X86 {
		lo.e(isa.Instr{Op: isa.OpMov, Rd: d.SP, Rs1: d.FP})
		lo.e(isa.Instr{Op: isa.OpPop, Rd: d.FP})
		lo.e(isa.Instr{Op: isa.OpRet})
	} else {
		lo.e(isa.Instr{Op: isa.OpLd, Rd: d.LR, Rs1: d.FP, Imm: 8})
		lo.e(isa.Instr{Op: isa.OpAddI, Rd: d.SP, Rs1: d.FP, Imm: 16})
		lo.e(isa.Instr{Op: isa.OpLd, Rd: d.FP, Rs1: d.FP, Imm: 0})
		lo.e(isa.Instr{Op: isa.OpRet})
	}
}

// moveParamsIn copies incoming arguments (registers or stack) to their homes.
func (lo *lowerer) moveParamsIn() {
	d := lo.desc
	regs, stackIdx := lo.paramLocs()
	for i, p := range lo.f.Params {
		h := lo.fr.homes[i]
		if !h.used {
			continue
		}
		isF := p.Type.IsFloat()
		switch {
		case regs[i] != isa.NoReg && h.inReg:
			if isF {
				lo.e(isa.Instr{Op: isa.OpFMov, Rd: h.reg, Rs1: regs[i]})
			} else {
				lo.e(isa.Instr{Op: isa.OpMov, Rd: h.reg, Rs1: regs[i]})
			}
		case regs[i] != isa.NoReg:
			if isF {
				lo.e(isa.Instr{Op: isa.OpFSt, Rs1: d.FP, Imm: h.off, Rs2: regs[i]})
			} else {
				lo.e(isa.Instr{Op: isa.OpSt, Rs1: d.FP, Imm: h.off, Rs2: regs[i]})
			}
		default:
			inOff := 16 + int64(stackIdx[i])*8
			if h.inReg {
				op := isa.OpLd
				if isF {
					op = isa.OpFLd
				}
				lo.e(isa.Instr{Op: op, Rd: h.reg, Rs1: d.FP, Imm: inOff})
			} else {
				// Stack -> stack through a scratch register.
				if isF {
					s := d.ScratchFloat[0]
					lo.e(isa.Instr{Op: isa.OpFLd, Rd: s, Rs1: d.FP, Imm: inOff})
					lo.e(isa.Instr{Op: isa.OpFSt, Rs1: d.FP, Imm: h.off, Rs2: s})
				} else {
					s := d.ScratchInt[0]
					lo.e(isa.Instr{Op: isa.OpLd, Rd: s, Rs1: d.FP, Imm: inOff})
					lo.e(isa.Instr{Op: isa.OpSt, Rs1: d.FP, Imm: h.off, Rs2: s})
				}
			}
		}
	}
}

// --- Operand staging --------------------------------------------------------

// useI returns a register holding integer vreg v, loading it into integer
// scratch `which` if the home is a frame slot.
func (lo *lowerer) useI(v ir.VReg, which int) isa.Reg {
	h := lo.fr.homes[v]
	if h.inReg {
		return h.reg
	}
	s := lo.desc.ScratchInt[which]
	lo.e(isa.Instr{Op: isa.OpLd, Rd: s, Rs1: lo.desc.FP, Imm: h.off})
	return s
}

// useF is the float counterpart of useI.
func (lo *lowerer) useF(v ir.VReg, which int) isa.Reg {
	h := lo.fr.homes[v]
	if h.inReg {
		return h.reg
	}
	s := lo.desc.ScratchFloat[which]
	lo.e(isa.Instr{Op: isa.OpFLd, Rd: s, Rs1: lo.desc.FP, Imm: h.off})
	return s
}

// defI returns the register an integer result of v should be computed into;
// call commitI after emitting the computation to store a spilled home.
func (lo *lowerer) defI(v ir.VReg) isa.Reg {
	if h := lo.fr.homes[v]; h.inReg {
		return h.reg
	}
	return lo.desc.ScratchInt[0]
}

// commitI stores v from the scratch register defI chose, if v is spilled.
func (lo *lowerer) commitI(v ir.VReg) {
	if h := lo.fr.homes[v]; !h.inReg {
		lo.e(isa.Instr{Op: isa.OpSt, Rs1: lo.desc.FP, Imm: h.off, Rs2: lo.desc.ScratchInt[0]})
	}
}

// defF is the float counterpart of defI.
func (lo *lowerer) defF(v ir.VReg) isa.Reg {
	if h := lo.fr.homes[v]; h.inReg {
		return h.reg
	}
	return lo.desc.ScratchFloat[0]
}

// commitF is the float counterpart of commitI.
func (lo *lowerer) commitF(v ir.VReg) {
	if h := lo.fr.homes[v]; !h.inReg {
		lo.e(isa.Instr{Op: isa.OpFSt, Rs1: lo.desc.FP, Imm: h.off, Rs2: lo.desc.ScratchFloat[0]})
	}
}

// --- Instruction selection ---------------------------------------------------

var binToOp = map[ir.BinOp]isa.Op{
	ir.Add: isa.OpAdd, ir.Sub: isa.OpSub, ir.Mul: isa.OpMul,
	ir.Div: isa.OpDiv, ir.Rem: isa.OpRem, ir.And: isa.OpAnd,
	ir.Or: isa.OpOr, ir.Xor: isa.OpXor, ir.Shl: isa.OpShl, ir.Shr: isa.OpShr,
}

var binToImmOp = map[ir.BinOp]isa.Op{
	ir.Add: isa.OpAddI, ir.Mul: isa.OpMulI, ir.And: isa.OpAndI,
	ir.Or: isa.OpOrI, ir.Xor: isa.OpXorI, ir.Shl: isa.OpShlI, ir.Shr: isa.OpShrI,
}

var fbinToOp = map[ir.FBinOp]isa.Op{
	ir.FAdd: isa.OpFAdd, ir.FSub: isa.OpFSub, ir.FMul: isa.OpFMul, ir.FDiv: isa.OpFDiv,
}

var cmpToOp = map[ir.CmpOp]isa.Op{
	ir.Eq: isa.OpCmpEq, ir.Ne: isa.OpCmpNe, ir.Lt: isa.OpCmpLt,
	ir.Le: isa.OpCmpLe, ir.Gt: isa.OpCmpGt, ir.Ge: isa.OpCmpGe,
}

var fcmpToOp = map[ir.CmpOp]isa.Op{
	ir.Eq: isa.OpFCmpEq, ir.Ne: isa.OpFCmpNe, ir.Lt: isa.OpFCmpLt,
	ir.Le: isa.OpFCmpLe, ir.Gt: isa.OpFCmpGt, ir.Ge: isa.OpFCmpGe,
}

func (lo *lowerer) instr(in *ir.Instr) error {
	if in.CallSiteID < 0 || int(in.CallSiteID) > maxCodeIndex {
		return fmt.Errorf("compiler: call site ID %d outside 0..%d", in.CallSiteID, maxCodeIndex)
	}
	d := lo.desc
	switch in.Kind {
	case ir.KConst:
		rd := lo.defI(in.Dst)
		lo.e(isa.Instr{Op: isa.OpLdi, Rd: rd, Imm: in.Imm})
		lo.commitI(in.Dst)
	case ir.KFConst:
		rd := lo.defF(in.Dst)
		lo.e(isa.Instr{Op: isa.OpFLdi, Rd: rd, FImm: in.FImm})
		lo.commitF(in.Dst)
	case ir.KMov:
		if lo.f.TypeOf(in.Dst).IsFloat() {
			a := lo.useF(in.A, 1)
			rd := lo.defF(in.Dst)
			if rd != a {
				lo.e(isa.Instr{Op: isa.OpFMov, Rd: rd, Rs1: a})
			}
			lo.commitF(in.Dst)
		} else {
			a := lo.useI(in.A, 1)
			rd := lo.defI(in.Dst)
			if rd != a {
				lo.e(isa.Instr{Op: isa.OpMov, Rd: rd, Rs1: a})
			}
			lo.commitI(in.Dst)
		}
	case ir.KBin:
		a := lo.useI(in.A, 0)
		b := lo.useI(in.B, 1)
		rd := lo.defI(in.Dst)
		lo.e(isa.Instr{Op: binToOp[in.Bin], Rd: rd, Rs1: a, Rs2: b})
		lo.commitI(in.Dst)
	case ir.KBinImm:
		a := lo.useI(in.A, 0)
		rd := lo.defI(in.Dst)
		if op, ok := binToImmOp[in.Bin]; ok {
			lo.e(isa.Instr{Op: op, Rd: rd, Rs1: a, Imm: in.Imm})
		} else if in.Bin == ir.Sub {
			lo.e(isa.Instr{Op: isa.OpAddI, Rd: rd, Rs1: a, Imm: -in.Imm})
		} else {
			// Div/Rem by immediate: materialise in scratch 1.
			s := d.ScratchInt[1]
			lo.e(isa.Instr{Op: isa.OpLdi, Rd: s, Imm: in.Imm})
			lo.e(isa.Instr{Op: binToOp[in.Bin], Rd: rd, Rs1: a, Rs2: s})
		}
		lo.commitI(in.Dst)
	case ir.KFBin:
		a := lo.useF(in.A, 0)
		b := lo.useF(in.B, 1)
		rd := lo.defF(in.Dst)
		lo.e(isa.Instr{Op: fbinToOp[in.FBin], Rd: rd, Rs1: a, Rs2: b})
		lo.commitF(in.Dst)
	case ir.KFNeg:
		a := lo.useF(in.A, 0)
		rd := lo.defF(in.Dst)
		lo.e(isa.Instr{Op: isa.OpFNeg, Rd: rd, Rs1: a})
		lo.commitF(in.Dst)
	case ir.KFSqrt:
		a := lo.useF(in.A, 0)
		rd := lo.defF(in.Dst)
		lo.e(isa.Instr{Op: isa.OpFSqrt, Rd: rd, Rs1: a})
		lo.commitF(in.Dst)
	case ir.KCmp:
		a := lo.useI(in.A, 0)
		b := lo.useI(in.B, 1)
		rd := lo.defI(in.Dst)
		lo.e(isa.Instr{Op: cmpToOp[in.Cmp], Rd: rd, Rs1: a, Rs2: b})
		lo.commitI(in.Dst)
	case ir.KFCmp:
		a := lo.useF(in.A, 0)
		b := lo.useF(in.B, 1)
		rd := lo.defI(in.Dst)
		lo.e(isa.Instr{Op: fcmpToOp[in.Cmp], Rd: rd, Rs1: a, Rs2: b})
		lo.commitI(in.Dst)
	case ir.KI2F:
		a := lo.useI(in.A, 0)
		rd := lo.defF(in.Dst)
		lo.e(isa.Instr{Op: isa.OpI2F, Rd: rd, Rs1: a})
		lo.commitF(in.Dst)
	case ir.KF2I:
		a := lo.useF(in.A, 0)
		rd := lo.defI(in.Dst)
		lo.e(isa.Instr{Op: isa.OpF2I, Rd: rd, Rs1: a})
		lo.commitI(in.Dst)
	case ir.KLoad:
		a := lo.useI(in.A, 0)
		if lo.f.TypeOf(in.Dst).IsFloat() {
			rd := lo.defF(in.Dst)
			lo.e(isa.Instr{Op: isa.OpFLd, Rd: rd, Rs1: a, Imm: in.Imm})
			lo.commitF(in.Dst)
		} else {
			rd := lo.defI(in.Dst)
			lo.e(isa.Instr{Op: isa.OpLd, Rd: rd, Rs1: a, Imm: in.Imm})
			lo.commitI(in.Dst)
		}
	case ir.KStore:
		a := lo.useI(in.A, 0)
		if lo.f.TypeOf(in.B).IsFloat() {
			v := lo.useF(in.B, 1)
			lo.e(isa.Instr{Op: isa.OpFSt, Rs1: a, Imm: in.Imm, Rs2: v})
		} else {
			v := lo.useI(in.B, 1)
			lo.e(isa.Instr{Op: isa.OpSt, Rs1: a, Imm: in.Imm, Rs2: v})
		}
	case ir.KLoadB:
		a := lo.useI(in.A, 0)
		rd := lo.defI(in.Dst)
		lo.e(isa.Instr{Op: isa.OpLdB, Rd: rd, Rs1: a, Imm: in.Imm})
		lo.commitI(in.Dst)
	case ir.KStoreB:
		a := lo.useI(in.A, 0)
		v := lo.useI(in.B, 1)
		lo.e(isa.Instr{Op: isa.OpStB, Rs1: a, Imm: in.Imm, Rs2: v})
	case ir.KAllocaAddr:
		rd := lo.defI(in.Dst)
		lo.e(isa.Instr{Op: isa.OpAddI, Rd: rd, Rs1: d.FP, Imm: lo.fr.allocaOff[in.Alloca]})
		lo.commitI(in.Dst)
	case ir.KGlobalAddr:
		rd := lo.defI(in.Dst)
		lo.e(isa.Instr{Op: isa.OpLea, Rd: rd, Sym: in.Sym, Imm: in.Imm})
		lo.commitI(in.Dst)
	case ir.KCall:
		lo.marshalArgs(in.Args)
		lo.e(isa.Instr{Op: isa.OpCall, Sym: in.Sym, CallSiteID: int32(in.CallSiteID)})
		lo.recordSite(in)
		lo.moveResult(in.Dst, lo.m.Func(in.Sym).Ret)
	case ir.KCallInd:
		fp := lo.useI(in.A, 1) // scratch 1: scratch 0 stages stack args
		lo.marshalArgs(in.Args)
		lo.e(isa.Instr{Op: isa.OpCallR, Rs1: fp, CallSiteID: int32(in.CallSiteID)})
		lo.recordSite(in)
		retType := ir.I64
		if in.Dst == ir.NoV {
			retType = ir.Void
		} else if lo.f.TypeOf(in.Dst).IsFloat() {
			retType = ir.F64
		}
		lo.moveResult(in.Dst, retType)
	case ir.KSyscall:
		lo.e(isa.Instr{Op: isa.OpLdi, Rd: d.IntArgRegs[0], Imm: in.Imm})
		for i, a := range in.Args {
			target := d.IntArgRegs[i+1]
			h := lo.fr.homes[a]
			if h.inReg {
				lo.e(isa.Instr{Op: isa.OpMov, Rd: target, Rs1: h.reg})
			} else {
				lo.e(isa.Instr{Op: isa.OpLd, Rd: target, Rs1: d.FP, Imm: h.off})
			}
		}
		lo.e(isa.Instr{Op: isa.OpSyscall, CallSiteID: int32(in.CallSiteID)})
		lo.recordSite(in)
		lo.moveResult(in.Dst, ir.I64)
	case ir.KAtomicAdd:
		a := lo.useI(in.A, 0)
		b := lo.useI(in.B, 1)
		rd := lo.defI(in.Dst)
		lo.e(isa.Instr{Op: isa.OpAtomicAdd, Rd: rd, Rs1: a, Rs2: b, Imm: in.Imm})
		lo.commitI(in.Dst)
	case ir.KAtomicCAS:
		a := lo.useI(in.A, 0)
		b := lo.useI(in.B, 1)
		// Third operand through the CAS-only scratch register.
		var c isa.Reg
		hc := lo.fr.homes[in.C]
		if hc.inReg {
			c = hc.reg
		} else {
			c = d.ScratchInt[2]
			lo.e(isa.Instr{Op: isa.OpLd, Rd: c, Rs1: d.FP, Imm: hc.off})
		}
		rd := lo.defI(in.Dst)
		lo.e(isa.Instr{Op: isa.OpAtomicCAS, Rd: rd, Rs1: a, Rs2: b, Rs3: c, Imm: in.Imm})
		lo.commitI(in.Dst)
	case ir.KRet:
		if in.A != ir.NoV {
			if lo.f.TypeOf(in.A).IsFloat() {
				v := lo.useF(in.A, 0)
				if v != d.FloatRet {
					lo.e(isa.Instr{Op: isa.OpFMov, Rd: d.FloatRet, Rs1: v})
				}
			} else {
				v := lo.useI(in.A, 0)
				if v != d.IntRet {
					lo.e(isa.Instr{Op: isa.OpMov, Rd: d.IntRet, Rs1: v})
				}
			}
		}
		lo.epilogue()
	case ir.KBr:
		lo.branch(isa.Instr{Op: isa.OpBr}, in.TargetA)
	case ir.KCondBr:
		cond := lo.useI(in.A, 0)
		lo.branch(isa.Instr{Op: isa.OpBnez, Rs1: cond}, in.TargetA)
		lo.branch(isa.Instr{Op: isa.OpBr}, in.TargetB)
	default:
		return fmt.Errorf("compiler: unhandled IR kind %d", int(in.Kind))
	}
	return nil
}

// marshalArgs stages call arguments: stack args first (through scratch 0),
// then register args. Argument registers are never vreg homes or scratch 0,
// so no parallel-move conflicts arise, and an indirect call's target register
// is scratch 1, which stack-arg staging does not use.
func (lo *lowerer) marshalArgs(args []ir.VReg) {
	d := lo.desc
	lo.types = lo.types[:0]
	for _, a := range args {
		lo.types = append(lo.types, lo.f.TypeOf(a))
	}
	types := lo.types
	regs, stackIdx := lo.argLocs(types)
	// Stack args.
	for i, a := range args {
		if stackIdx[i] < 0 {
			continue
		}
		off := int64(stackIdx[i]) * 8
		if types[i].IsFloat() {
			v := lo.useF(a, 0)
			lo.e(isa.Instr{Op: isa.OpFSt, Rs1: d.SP, Imm: off, Rs2: v})
		} else {
			v := lo.useI(a, 0)
			lo.e(isa.Instr{Op: isa.OpSt, Rs1: d.SP, Imm: off, Rs2: v})
		}
	}
	// Register args.
	for i, a := range args {
		if regs[i] == isa.NoReg {
			continue
		}
		h := lo.fr.homes[a]
		if types[i].IsFloat() {
			if h.inReg {
				lo.e(isa.Instr{Op: isa.OpFMov, Rd: regs[i], Rs1: h.reg})
			} else {
				lo.e(isa.Instr{Op: isa.OpFLd, Rd: regs[i], Rs1: d.FP, Imm: h.off})
			}
		} else {
			if h.inReg {
				lo.e(isa.Instr{Op: isa.OpMov, Rd: regs[i], Rs1: h.reg})
			} else {
				lo.e(isa.Instr{Op: isa.OpLd, Rd: regs[i], Rs1: d.FP, Imm: h.off})
			}
		}
	}
}

// moveResult stores the ABI return register into dst's home.
func (lo *lowerer) moveResult(dst ir.VReg, ret ir.Type) {
	if dst == ir.NoV || ret == ir.Void {
		return
	}
	d := lo.desc
	h := lo.fr.homes[dst]
	if !h.used {
		return
	}
	if ret.IsFloat() {
		if h.inReg {
			lo.e(isa.Instr{Op: isa.OpFMov, Rd: h.reg, Rs1: d.FloatRet})
		} else {
			lo.e(isa.Instr{Op: isa.OpFSt, Rs1: d.FP, Imm: h.off, Rs2: d.FloatRet})
		}
	} else {
		if h.inReg {
			lo.e(isa.Instr{Op: isa.OpMov, Rd: h.reg, Rs1: d.IntRet})
		} else {
			lo.e(isa.Instr{Op: isa.OpSt, Rs1: d.FP, Imm: h.off, Rs2: d.IntRet})
		}
	}
}

// recordSite emits the stackmap record for a call-like site: the IR-level
// live set mapped to this ISA's value locations.
func (lo *lowerer) recordSite(in *ir.Instr) {
	live := lo.lv.liveAcrossCall(lo.calls)
	lo.sites[lo.calls].ID = int(in.CallSiteID)
	lo.calls++
	for i, w := range live {
		for w &= lo.fr.used[i]; w != 0; w &= w - 1 {
			v := ir.VReg(i<<6 | bits.TrailingZeros64(w))
			h := lo.fr.homes[v]
			lv := stackmap.LiveValue{VReg: int(v), Type: lo.f.TypeOf(v)}
			if h.inReg {
				lv.Loc = stackmap.Loc{Kind: stackmap.InReg, Reg: h.reg, IsFloat: h.isFloat}
			} else {
				lv.Loc = stackmap.Loc{Kind: stackmap.InFrame, Off: h.off, IsFloat: h.isFloat}
			}
			lo.live = append(lo.live, lv)
		}
	}
	lo.liveEnd = append(lo.liveEnd, len(lo.live))
}
