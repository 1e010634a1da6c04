package isa

import "fmt"

// Op is a machine operation. Both simulated ISAs execute the same semantic
// operation vocabulary; they differ in encoding length, cycle cost, register
// files and ABI. This mirrors the paper's setting, where both real ISAs are
// 64-bit general-purpose machines and the migration difficulty comes from
// ABI and layout divergence rather than from semantics.
type Op uint8

const (
	// OpNop does nothing.
	OpNop Op = iota

	// Integer ALU. Rd = Rs1 <op> Rs2.
	OpAdd
	OpSub
	OpMul
	OpDiv // signed; division by zero traps
	OpRem // signed remainder; division by zero traps
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // arithmetic shift right

	// OpAddI: Rd = Rs1 + Imm (also used for SP adjustment and address math).
	OpAddI
	// OpMulI: Rd = Rs1 * Imm.
	OpMulI
	// OpAndI, OpOrI, OpXorI, OpShlI, OpShrI: immediate logical forms.
	OpAndI
	OpOrI
	OpXorI
	OpShlI
	OpShrI

	// OpLdi: Rd = Imm (materialise 64-bit constant).
	OpLdi
	// OpMov: Rd = Rs1.
	OpMov

	// Integer comparisons. Rd = (Rs1 cc Rs2) ? 1 : 0 (signed).
	OpCmpEq
	OpCmpNe
	OpCmpLt
	OpCmpLe
	OpCmpGt
	OpCmpGe

	// Float ALU (operands in the float register file). Fd = Fs1 <op> Fs2.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	// OpFNeg: Fd = -Fs1.
	OpFNeg
	// OpFSqrt: Fd = sqrt(Fs1).
	OpFSqrt
	// OpFMov: Fd = Fs1.
	OpFMov
	// OpFLdi: Fd = float64 constant carried in FImm.
	OpFLdi

	// Float comparisons: integer Rd = (Fs1 cc Fs2) ? 1 : 0.
	OpFCmpEq
	OpFCmpNe
	OpFCmpLt
	OpFCmpLe
	OpFCmpGt
	OpFCmpGe

	// Conversions.
	OpI2F // Fd = float64(Rs1)
	OpF2I // Rd = int64(Fs1), truncating

	// Memory. Effective address = Rs1 + Imm.
	OpLd  // Rd = *(int64*)(ea)
	OpSt  // *(int64*)(ea) = Rs2
	OpLdB // Rd = zero-extended *(uint8*)(ea)
	OpStB // *(uint8*)(ea) = low byte of Rs2
	OpFLd // Fd = *(float64*)(ea)
	OpFSt // *(float64*)(ea) = Fs2

	// OpLea: Rd = address of symbol Sym plus Imm. The linker guarantees Sym
	// resolves to the same virtual address on every ISA.
	OpLea

	// Control flow.
	OpBr   // unconditional branch to Target (intra-function)
	OpBeqz // branch to Target if Rs1 == 0
	OpBnez // branch to Target if Rs1 != 0
	OpCall // call symbol Sym; return-address discipline is per-ISA
	OpRet  // return
	// OpCallR: indirect call through integer register Rs1.
	OpCallR

	// OpSyscall traps into the kernel. The syscall number and arguments are
	// in the ISA's argument registers; the result comes back in the return
	// register.
	OpSyscall

	// Atomics (sequentially consistent in the simulator).
	OpAtomicAdd // Rd = old value of *(int64*)(Rs1+Imm); memory += Rs2
	OpAtomicCAS // Rd = old; if old == Rs2 then memory = Rs3cas (in Imm? see note)

	// Stack-discipline pseudo-ops with real per-ISA behaviour.
	OpPush // push Rs1 (x86 flavour; arm backend does not emit it)
	OpPop  // pop into Rd
)

// opName maps ops to mnemonics for disassembly.
var opName = map[Op]string{
	OpNop: "nop", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpRem: "rem", OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl",
	OpShr: "shr", OpAddI: "addi", OpMulI: "muli", OpAndI: "andi",
	OpOrI: "ori", OpXorI: "xori", OpShlI: "shli", OpShrI: "shri",
	OpLdi: "ldi", OpMov: "mov",
	OpCmpEq: "cmpeq", OpCmpNe: "cmpne", OpCmpLt: "cmplt", OpCmpLe: "cmple",
	OpCmpGt: "cmpgt", OpCmpGe: "cmpge",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFNeg: "fneg", OpFSqrt: "fsqrt", OpFMov: "fmov", OpFLdi: "fldi",
	OpFCmpEq: "fcmpeq", OpFCmpNe: "fcmpne", OpFCmpLt: "fcmplt",
	OpFCmpLe: "fcmple", OpFCmpGt: "fcmpgt", OpFCmpGe: "fcmpge",
	OpI2F: "i2f", OpF2I: "f2i",
	OpLd: "ld", OpSt: "st", OpLdB: "ldb", OpStB: "stb",
	OpFLd: "fld", OpFSt: "fst", OpLea: "lea",
	OpBr: "br", OpBeqz: "beqz", OpBnez: "bnez",
	OpCall: "call", OpRet: "ret", OpCallR: "callr", OpSyscall: "syscall",
	OpAtomicAdd: "atomadd", OpAtomicCAS: "atomcas",
	OpPush: "push", OpPop: "pop",
}

// String returns the mnemonic for the op.
func (o Op) String() string {
	if s, ok := opName[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// LineShift is log2 of the L1 line size of both evaluation machines, the
// granularity of Instr.SameLine.
const LineShift = 6

// Instr is one machine instruction. Instructions are held decoded (Go
// structs); the Size field models the encoded length so that code layout and
// the instruction-cache simulation see realistic per-ISA footprints.
//
// An Instr is host memory for every instruction of every loaded image, so
// its fields are ordered to pack into 48 bytes (Go does not reorder them):
// the registers, flags and size share the first 8 bytes, the two indices
// the next 8, then the immediates and the symbol.
type Instr struct {
	Op  Op
	Rd  Reg // destination (int or float file depending on Op)
	Rs1 Reg
	Rs2 Reg
	Rs3 Reg // third source: OpAtomicCAS new-value register
	// SameLine: the linker found the instruction wholly inside the
	// 1<<LineShift-byte line where its predecessor in the function ends.
	SameLine bool
	// Size is the encoded length in bytes on the owning ISA (EncodedSize).
	Size uint8

	// Target is the intra-function branch target, an instruction index within
	// the function body (resolved by the assembler before layout).
	Target int32

	// CallSiteID identifies the IR call site for OpCall instructions so the
	// runtime can map return addresses across ISAs. Zero means "not a mapped
	// call site" (e.g. calls emitted by the prologue machinery).
	CallSiteID int32

	Imm  int64   // immediate / memory displacement
	FImm float64 // float immediate for OpFLdi

	// Sym is the symbol operand of OpCall / OpLea.
	Sym string
}

// String renders the instruction for disassembly listings.
func (in *Instr) String() string {
	switch in.Op {
	case OpCall:
		return fmt.Sprintf("%-8s %s // cs=%d", in.Op, in.Sym, in.CallSiteID)
	case OpLea:
		return fmt.Sprintf("%-8s r%d, %s+%d", in.Op, in.Rd, in.Sym, in.Imm)
	case OpBr:
		return fmt.Sprintf("%-8s @%d", in.Op, in.Target)
	case OpBeqz, OpBnez:
		return fmt.Sprintf("%-8s r%d, @%d", in.Op, in.Rs1, in.Target)
	case OpLdi:
		return fmt.Sprintf("%-8s r%d, #%d", in.Op, in.Rd, in.Imm)
	case OpFLdi:
		return fmt.Sprintf("%-8s f%d, #%g", in.Op, in.Rd, in.FImm)
	case OpLd, OpLdB, OpFLd:
		return fmt.Sprintf("%-8s r%d, [r%d%+d]", in.Op, in.Rd, in.Rs1, in.Imm)
	case OpSt, OpStB, OpFSt:
		return fmt.Sprintf("%-8s [r%d%+d], r%d", in.Op, in.Rs1, in.Imm, in.Rs2)
	case OpAddI, OpMulI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI:
		return fmt.Sprintf("%-8s r%d, r%d, #%d", in.Op, in.Rd, in.Rs1, in.Imm)
	case OpRet, OpNop, OpSyscall:
		return in.Op.String()
	default:
		return fmt.Sprintf("%-8s r%d, r%d, r%d", in.Op, in.Rd, in.Rs1, in.Rs2)
	}
}

// EncodedSize returns the modelled encoding length in bytes of in on arch a.
// ARM64 uses fixed 4-byte encodings (large constants take a 2-3 instruction
// movz/movk sequence, modelled as 8 or 12 bytes). x86 uses a variable-length
// heuristic patterned after real x86-64 encodings: REX prefixes, ModRM,
// displacement and immediate widths. No encoding is longer than 16 bytes,
// so the result is Instr.Size's type.
func EncodedSize(a Arch, in *Instr) uint8 {
	if a == ARM64 {
		switch in.Op {
		case OpLdi:
			// movz + up to 3 movk
			v := uint64(in.Imm)
			switch {
			case v>>16 == 0 || ^v>>16 == 0:
				return 4
			case v>>32 == 0 || ^v>>32 == 0:
				return 8
			case v>>48 == 0 || ^v>>48 == 0:
				return 12
			default:
				return 16
			}
		case OpFLdi, OpLea:
			return 8 // adrp+add / literal load pair
		case OpAtomicCAS:
			return 12 // ldaxr/cmp/stlxr sequence collapsed
		case OpAtomicAdd:
			return 8
		default:
			return 4
		}
	}
	// x86 heuristic.
	immBytes := func(v int64) uint8 {
		switch {
		case v == 0:
			return 1
		case v >= -128 && v <= 127:
			return 1
		case v >= -(1<<31) && v < 1<<31:
			return 4
		default:
			return 8
		}
	}
	switch in.Op {
	case OpNop:
		return 1
	case OpRet:
		return 1
	case OpPush, OpPop:
		if in.Rd >= 8 || in.Rs1 >= 8 {
			return 2
		}
		return 1
	case OpLdi:
		return 2 + immBytes(in.Imm) // REX + opcode + imm (mov r64, imm)
	case OpFLdi:
		return 8 // movsd xmm, [rip+disp]
	case OpMov, OpFMov:
		return 3
	case OpAdd, OpSub, OpAnd, OpOr, OpXor:
		return 3
	case OpMul:
		return 4 // imul r64, r64
	case OpDiv, OpRem:
		return 6 // cqo + idiv + moves folded
	case OpShl, OpShr:
		return 4 // shift by cl, includes mov to cl
	case OpAddI, OpAndI, OpOrI, OpXorI, OpMulI:
		return 3 + immBytes(in.Imm)
	case OpShlI, OpShrI:
		return 4
	case OpCmpEq, OpCmpNe, OpCmpLt, OpCmpLe, OpCmpGt, OpCmpGe:
		return 7 // cmp + setcc + movzx
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFSqrt:
		return 4
	case OpFNeg:
		return 4
	case OpFCmpEq, OpFCmpNe, OpFCmpLt, OpFCmpLe, OpFCmpGt, OpFCmpGe:
		return 8 // ucomisd + setcc + movzx
	case OpI2F, OpF2I:
		return 5
	case OpLd, OpSt:
		return 3 + immBytes(in.Imm)
	case OpLdB, OpStB:
		return 3 + immBytes(in.Imm)
	case OpFLd, OpFSt:
		return 4 + immBytes(in.Imm)
	case OpLea:
		return 7 // lea r64, [rip+disp32]
	case OpBr:
		return 2 // jmp rel8/rel32, optimistically short
	case OpBeqz, OpBnez:
		return 5 // test + jcc
	case OpCall:
		return 5
	case OpCallR:
		return 3
	case OpSyscall:
		return 2
	case OpAtomicAdd:
		return 5 // lock xadd
	case OpAtomicCAS:
		return 5 // lock cmpxchg
	}
	return 4
}

// CycleCost returns the modelled base cycle cost of executing in on arch a,
// excluding cache-miss and DSM penalties. The tables encode the paper-era
// microarchitectural contrast: the Xeon has stronger multiply/divide and FP
// units; the X-Gene 1 pays more for complex ops but branches cheaply.
func CycleCost(a Arch, op Op) int64 {
	if a == X86 {
		switch op {
		case OpMul, OpMulI:
			return 3
		case OpDiv, OpRem:
			return 22
		case OpFAdd, OpFSub:
			return 3
		case OpFMul:
			return 4
		case OpFDiv:
			return 14
		case OpFSqrt:
			return 16
		case OpI2F, OpF2I:
			return 4
		case OpLd, OpLdB, OpFLd:
			return 4
		case OpSt, OpStB, OpFSt:
			return 1
		case OpCall, OpRet:
			return 2
		case OpBr, OpBeqz, OpBnez:
			return 1
		case OpSyscall:
			return 120
		case OpAtomicAdd, OpAtomicCAS:
			return 20
		case OpPush, OpPop:
			return 1
		case OpFCmpEq, OpFCmpNe, OpFCmpLt, OpFCmpLe, OpFCmpGt, OpFCmpGe:
			return 3
		default:
			return 1
		}
	}
	// ARM64 (X-Gene 1 flavour): in-order-ish costs.
	switch op {
	case OpMul, OpMulI:
		return 5
	case OpDiv, OpRem:
		return 38
	case OpFAdd, OpFSub:
		return 5
	case OpFMul:
		return 6
	case OpFDiv:
		return 29
	case OpFSqrt:
		return 33
	case OpI2F, OpF2I:
		return 6
	case OpLd, OpLdB, OpFLd:
		return 5
	case OpSt, OpStB, OpFSt:
		return 2
	case OpCall, OpRet:
		return 2
	case OpBr, OpBeqz, OpBnez:
		return 1
	case OpSyscall:
		return 180
	case OpAtomicAdd, OpAtomicCAS:
		return 28
	case OpFCmpEq, OpFCmpNe, OpFCmpLt, OpFCmpLe, OpFCmpGt, OpFCmpGe:
		return 5
	default:
		return 1
	}
}

// CostTable holds a base cycle cost for every value of Op — one entry per
// uint8, so indexing it by an Op needs no bounds check.
type CostTable [256]int64

// Scale returns a new table whose entry for op is t's times factor(op),
// truncated and at least 1: the costs of a machine that translates or
// interprets the code t's machine runs natively.
func (t *CostTable) Scale(factor func(Op) float64) *CostTable {
	s := new(CostTable)
	for op, c := range t {
		s[op] = max(1, int64(float64(c)*factor(Op(op))))
	}
	return s
}

var costTables = func() (t [NumArch]CostTable) {
	for _, a := range Arches {
		for op := range t[a] {
			t[a][op] = CycleCost(a, Op(op))
		}
	}
	return t
}()
