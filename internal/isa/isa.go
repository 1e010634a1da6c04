// Package isa defines the two simulated 64-bit instruction set
// architectures used throughout the reproduction: a CISC-flavoured x86-like
// ISA and a RISC-flavoured ARM64-like ISA.
//
// The two ISAs share an operation vocabulary (both are executed by the same
// machine simulator) but differ in everything the paper's migration problem
// cares about: register-file shape, calling convention, callee-saved sets,
// return-address discipline (stack push vs link register), stack alignment,
// instruction encoding length, and per-opcode cycle cost.
package isa

import "fmt"

// Arch identifies one of the simulated architectures.
type Arch int

const (
	// X86 is the CISC-flavoured simulated architecture (variable-length
	// encoding, return address pushed on the stack).
	X86 Arch = iota
	// ARM64 is the RISC-flavoured simulated architecture (fixed 4-byte
	// encoding, link register).
	ARM64
)

// NumArch is the number of simulated architectures.
const NumArch = 2

// Arches lists every simulated architecture.
var Arches = [NumArch]Arch{X86, ARM64}

// String returns the conventional lowercase name of the architecture.
func (a Arch) String() string {
	switch a {
	case X86:
		return "x86-64"
	case ARM64:
		return "arm64"
	}
	return fmt.Sprintf("arch(%d)", int(a))
}

// Other returns the opposite architecture; useful in two-machine tests.
func (a Arch) Other() Arch {
	if a == X86 {
		return ARM64
	}
	return X86
}

// Reg is an architectural register number. Integer and floating-point
// registers live in separate files; Reg values index into one of the two
// files depending on the instruction's operand class.
type Reg uint8

// NoReg marks an unused register operand.
const NoReg Reg = 0xFF

// RegClass distinguishes the integer and floating-point register files.
type RegClass int

const (
	// ClassInt is the general-purpose integer register file.
	ClassInt RegClass = iota
	// ClassFloat is the floating-point register file.
	ClassFloat
)

// Desc describes the architectural contract of one simulated ISA: register
// file sizes, ABI register assignments, alignment rules and encoding model.
type Desc struct {
	Arch Arch
	Name string

	// NumIntRegs and NumFloatRegs are the architectural register file sizes
	// (including special registers such as SP/FP/LR).
	NumIntRegs   int
	NumFloatRegs int

	// SP, FP are the stack- and frame-pointer registers. LR is the link
	// register, or NoReg if the ISA pushes return addresses on the stack.
	SP, FP, LR Reg

	// IntArgRegs and FloatArgRegs are the argument-passing registers in
	// order. IntRet and FloatRet hold return values.
	IntArgRegs   []Reg
	FloatArgRegs []Reg
	IntRet       Reg
	FloatRet     Reg

	// CalleeSavedInt and CalleeSavedFloat must be preserved across calls.
	CalleeSavedInt   []Reg
	CalleeSavedFloat []Reg

	// CallerSavedInt and CallerSavedFloat may be clobbered by calls.
	CallerSavedInt   []Reg
	CallerSavedFloat []Reg

	// AllocatableInt and AllocatableFloat are the registers available to the
	// register allocator (excludes SP, FP, LR and the scratch registers).
	AllocatableInt   []Reg
	AllocatableFloat []Reg

	// ScratchInt and ScratchFloat are reserved for the code generator's own
	// short-lived needs (address materialisation, spill reloads). The third
	// integer scratch is only used outside call marshalling (atomics).
	ScratchInt   [3]Reg
	ScratchFloat [2]Reg

	// StackAlign is the required SP alignment in bytes at call boundaries.
	StackAlign int64

	// RetAddrOnStack reports whether CALL pushes the return address onto the
	// stack (x86 style) as opposed to writing the link register (ARM style).
	RetAddrOnStack bool

	// ClockHz is the simulated core frequency.
	ClockHz float64

	// Cores is the number of cores on the reference server for this ISA.
	Cores int

	// L1MissPenalty is the additional cycle cost of an L1 miss.
	L1MissPenalty int64
}

var (
	x86Desc   *Desc
	arm64Desc *Desc
)

// Named x86 registers. RAX..R15 as 0..15.
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
)

// Named arm64 registers: X0..X30 as 0..30, SP as 31.
const (
	X0 Reg = iota
	X1
	X2
	X3
	X4
	X5
	X6
	X7
	X8
	X9
	X10
	X11
	X12
	X13
	X14
	X15
	X16
	X17
	X18
	X19
	X20
	X21
	X22
	X23
	X24
	X25
	X26
	X27
	X28
	X29 // frame pointer
	X30 // link register
	SPReg
)

func init() {
	x86Desc = &Desc{
		Arch:         X86,
		Name:         "x86-64",
		NumIntRegs:   16,
		NumFloatRegs: 16,
		SP:           RSP,
		FP:           RBP,
		LR:           NoReg,
		IntArgRegs:   []Reg{RDI, RSI, RDX, RCX, R8, R9},
		FloatArgRegs: []Reg{0, 1, 2, 3, 4, 5, 6, 7}, // XMM0-7
		IntRet:       RAX,
		FloatRet:     0, // XMM0
		CalleeSavedInt: []Reg{
			RBX, R12, R13, R14, R15, // RBP handled as frame pointer
		},
		// Real SysV leaves all XMM caller-saved; the simulated ISA preserves
		// XMM8-11 so float-heavy code is not pathologically memory-bound
		// (documented deviation; the 4-vs-8 asymmetry with arm64 remains).
		CalleeSavedFloat: []Reg{8, 9, 10, 11},
		CallerSavedInt:   []Reg{RAX, RCX, RDX, RSI, RDI, R8, R9, R10},
		CallerSavedFloat: []Reg{0, 1, 2, 3, 4, 5, 6, 7, 12, 13},
		// Vreg homes come from the callee-saved sets only; Allocatable lists
		// them for completeness.
		AllocatableInt:   []Reg{RBX, R12, R13, R14, R15},
		AllocatableFloat: []Reg{8, 9, 10, 11},
		ScratchInt:       [3]Reg{R11, R10, R9},
		ScratchFloat:     [2]Reg{15, 14},
		StackAlign:       8,
		RetAddrOnStack:   true,
		ClockHz:          3.5e9,
		Cores:            6,
		L1MissPenalty:    12,
	}

	arm64Desc = &Desc{
		Arch:         ARM64,
		Name:         "arm64",
		NumIntRegs:   32, // X0-X30 plus SP
		NumFloatRegs: 32,
		SP:           SPReg,
		FP:           X29,
		LR:           X30,
		IntArgRegs:   []Reg{X0, X1, X2, X3, X4, X5, X6, X7},
		FloatArgRegs: []Reg{0, 1, 2, 3, 4, 5, 6, 7}, // V0-V7
		IntRet:       X0,
		FloatRet:     0,
		CalleeSavedInt: []Reg{
			X19, X20, X21, X22, X23, X24, X25, X26, X27, X28,
		},
		CalleeSavedFloat: []Reg{8, 9, 10, 11, 12, 13, 14, 15}, // V8-V15
		CallerSavedInt: []Reg{
			X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11, X12, X13, X14, X15,
		},
		CallerSavedFloat: []Reg{0, 1, 2, 3, 4, 5, 6, 7},
		AllocatableInt: []Reg{
			X19, X20, X21, X22, X23, X24, X25, X26, X27, X28,
		},
		AllocatableFloat: []Reg{8, 9, 10, 11, 12, 13, 14, 15},
		ScratchInt:       [3]Reg{X16, X17, X18},
		ScratchFloat:     [2]Reg{31, 30},
		StackAlign:       16,
		RetAddrOnStack:   false,
		ClockHz:          2.4e9,
		Cores:            8,
		L1MissPenalty:    25,
	}
}

// Describe returns the architectural description of a.
func Describe(a Arch) *Desc {
	switch a {
	case X86:
		return x86Desc
	case ARM64:
		return arm64Desc
	}
	panic(fmt.Sprintf("isa: unknown arch %d", int(a)))
}

// IntRegName returns a human-readable name for an integer register.
func (d *Desc) IntRegName(r Reg) string {
	if d.Arch == X86 {
		names := [...]string{
			"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
			"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
		}
		if int(r) < len(names) {
			return names[r]
		}
	} else {
		if r == SPReg {
			return "sp"
		}
		if r == X29 {
			return "x29/fp"
		}
		if r == X30 {
			return "x30/lr"
		}
		if int(r) < 31 {
			return fmt.Sprintf("x%d", int(r))
		}
	}
	return fmt.Sprintf("r?%d", int(r))
}

// FloatRegName returns a human-readable name for a floating-point register.
func (d *Desc) FloatRegName(r Reg) string {
	if d.Arch == X86 {
		return fmt.Sprintf("xmm%d", int(r))
	}
	return fmt.Sprintf("v%d", int(r))
}

// IsCalleeSaved reports whether integer register r must be preserved by a
// callee on this architecture. The frame pointer and link register are
// treated as callee-saved because prologues save and restore them.
func (d *Desc) IsCalleeSaved(r Reg) bool {
	if r == d.FP || (d.LR != NoReg && r == d.LR) {
		return true
	}
	for _, cs := range d.CalleeSavedInt {
		if cs == r {
			return true
		}
	}
	return false
}
