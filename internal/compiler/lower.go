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

// lowerer holds the state of lowering one function for one ISA. A
// compilation keeps one and reuses its arrays from function to function:
// only what the AsmFunc keeps is allocated per function.
type lowerer struct {
	m    *ir.Module
	f    *ir.Func
	lv   liveness // of f
	fr   frame
	desc *isa.Desc

	out        []isa.Instr
	blockStart []int
	// branchFixups lists the emitted branch instructions whose Target is
	// still to be set to the first instruction of an IR block.
	branchFixups []branchFixup

	// calls counts the call-like instructions lowered so far, which makes
	// it the index of the next one's set in lv.
	calls int
	sites map[int]*stackmap.CallSite
	// siteSlab and liveSlab hold every call site of the function and every
	// live value of those sites.
	siteSlab []stackmap.CallSite
	liveSlab []stackmap.LiveValue

	// types, argRegs and argStack are scratch for argLocs.
	types    []ir.Type
	argRegs  []isa.Reg
	argStack []int
}

// branchFixup says that the branch at out[at] targets IR block block.
type branchFixup struct{ at, block int }

// maxCodeIndex bounds a function's instruction count and its call-site
// IDs, which isa.Instr holds as int32 (Target and CallSiteID). A variable
// so that tests can reach it with small functions.
var maxCodeIndex = math.MaxInt32

// lowerFunc compiles f for desc's architecture; lo.lv must hold f's
// liveness.
func (lo *lowerer) lowerFunc(f *ir.Func, desc *isa.Desc) (*AsmFunc, error) {
	if f.Name == MigrateCheckFunc {
		// The migration-point body is hand-scheduled per ISA (as the real
		// runtime's check is): the hot no-request path runs frameless in
		// scratch registers — a call, two loads and a branch — and only the
		// cold migrate path builds an unwindable frame.
		return lowerMigrateCheck(f, desc), nil
	}
	lo.f, lo.desc = f, desc
	lo.fr.build(lo.m, f, &lo.lv, desc)
	lo.out = lo.out[:0]
	lo.blockStart = grow(lo.blockStart, len(f.Blocks))
	lo.branchFixups = lo.branchFixups[:0]
	lo.startSites()
	lo.prologue()
	lo.moveParamsIn()
	for bi, blk := range f.Blocks {
		lo.blockStart[bi] = len(lo.out)
		// The entry block's code begins after the prologue; blockStart[0]
		// points at the first post-prologue instruction, which is correct
		// because nothing branches to the entry block's prologue.
		for ii := range blk.Instrs {
			if err := lo.instr(&blk.Instrs[ii]); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", f.Name, blk.Name, err)
			}
		}
	}
	if len(lo.out) > maxCodeIndex {
		return nil, fmt.Errorf("%s: %d instructions, more than a branch target can index (%d)", f.Name, len(lo.out), maxCodeIndex)
	}
	// Patch intra-function branch targets from block indices to instruction
	// indices.
	for _, fx := range lo.branchFixups {
		lo.out[fx.at].Target = int32(lo.blockStart[fx.block])
	}
	return lo.finish(), nil
}

// newLowerer returns a lowerer for m's functions. Its code buffer holds
// three machine instructions per IR instruction of m's largest function:
// the NPB programs' largest functions lower to 2.7 to 2.9 per IR
// instruction on the longer ISA, so the buffer is allocated once.
func newLowerer(m *ir.Module) *lowerer {
	largest := 0
	for _, f := range m.Funcs {
		n := 0
		for _, blk := range f.Blocks {
			n += len(blk.Instrs)
		}
		largest = max(largest, n)
	}
	return &lowerer{m: m, out: make([]isa.Instr, 0, 3*largest+16)}
}

// startSites sizes the function's call-site and live-value slabs exactly:
// one record per call-like instruction, one value per used vreg live
// across each.
func (lo *lowerer) startSites() {
	n := lo.lv.ncalls
	values := 0
	for k := 0; k < n; k++ {
		for i, w := range lo.lv.liveAcrossCall(k) {
			values += bits.OnesCount64(w & lo.fr.used[i])
		}
	}
	lo.calls = 0
	lo.sites = make(map[int]*stackmap.CallSite, n)
	lo.siteSlab = make([]stackmap.CallSite, n)
	lo.liveSlab = make([]stackmap.LiveValue, 0, values)
}

// finish copies the lowered code into an array of its own and builds the
// function's metadata.
func (lo *lowerer) finish() *AsmFunc {
	af := &AsmFunc{
		Name: lo.f.Name,
		Arch: lo.desc.Arch,
		Code: make([]isa.Instr, len(lo.out)),
	}
	copy(af.Code, lo.out)
	for i := range af.Code {
		af.Code[i].Size = isa.EncodedSize(lo.desc.Arch, &af.Code[i])
		af.Size += int64(af.Code[i].Size)
	}

	info := &stackmap.FuncInfo{
		Name:          lo.f.Name,
		FrameSize:     lo.fr.frameSize,
		AllocaSizes:   append([]int64(nil), lo.f.AllocaSizes...),
		AllocaPtr:     append([]bool(nil), lo.f.AllocaPtr...),
		AllocaOffsets: append([]int64(nil), lo.fr.allocaOff...),
		CallSites:     lo.sites,
		IsEntry:       lo.f.IsEntry,
		NoMigrate:     lo.f.NoMigrate,
	}
	if len(lo.fr.saveRegs) > 0 {
		info.Saves = make([]stackmap.SavedReg, len(lo.fr.saveRegs))
		for i, s := range lo.fr.saveRegs {
			info.Saves[i] = stackmap.SavedReg{Reg: s.reg, IsFloat: s.isFloat, Off: s.off}
		}
	}
	info.NumStackArgBytes = lo.fr.outArgBytes
	// Record stack-passed parameter offsets.
	_, stackIdx := lo.paramLocs()
	for i, si := range stackIdx {
		if si >= 0 {
			if info.StackParams == nil {
				info.StackParams = map[int]int64{}
			}
			info.StackParams[i] = 16 + int64(si)*8
		}
	}
	af.Info = info
	return af
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
func (lo *lowerer) branch(in isa.Instr, block int) {
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
	if in.CallSiteID < 0 || in.CallSiteID > maxCodeIndex {
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
	cs := &lo.siteSlab[lo.calls]
	lo.calls++
	cs.ID = in.CallSiteID
	first := len(lo.liveSlab)
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
			lo.liveSlab = append(lo.liveSlab, lv)
		}
	}
	if last := len(lo.liveSlab); last > first {
		cs.Live = lo.liveSlab[first:last:last]
	}
	lo.sites[in.CallSiteID] = cs
}
