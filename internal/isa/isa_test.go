package isa

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestDescribeBothArches(t *testing.T) {
	for _, a := range Arches {
		d := Describe(a)
		if d.Arch != a {
			t.Errorf("%s: desc arch mismatch", a)
		}
		if d.ClockHz <= 0 || d.Cores <= 0 {
			t.Errorf("%s: bad clock/cores", a)
		}
		if d.SP == NoReg || d.FP == NoReg {
			t.Errorf("%s: SP/FP unset", a)
		}
	}
}

func TestOther(t *testing.T) {
	if X86.Other() != ARM64 || ARM64.Other() != X86 {
		t.Fatal("Other() broken")
	}
}

func TestReturnAddressDiscipline(t *testing.T) {
	if !Describe(X86).RetAddrOnStack {
		t.Error("x86 must push return addresses")
	}
	if Describe(ARM64).RetAddrOnStack {
		t.Error("arm64 must use a link register")
	}
	if Describe(ARM64).LR == NoReg {
		t.Error("arm64 must have a link register")
	}
	if Describe(X86).LR != NoReg {
		t.Error("x86 must not have a link register")
	}
}

// contains reports whether r is in set.
func contains(set []Reg, r Reg) bool {
	for _, x := range set {
		if x == r {
			return true
		}
	}
	return false
}

func TestScratchDisjointFromAllocatable(t *testing.T) {
	for _, a := range Arches {
		d := Describe(a)
		for _, s := range d.ScratchInt {
			if s == NoReg {
				continue
			}
			if contains(d.AllocatableInt, s) {
				t.Errorf("%s: int scratch %d is allocatable", a, s)
			}
			if contains(d.CalleeSavedInt, s) {
				t.Errorf("%s: int scratch %d is callee-saved", a, s)
			}
		}
		for _, s := range d.ScratchFloat {
			if contains(d.AllocatableFloat, s) {
				t.Errorf("%s: float scratch %d is allocatable", a, s)
			}
		}
	}
}

func TestArgRegsAreCallerSaved(t *testing.T) {
	// Vreg homes live exclusively in callee-saved registers; argument
	// marshalling must never clobber one.
	for _, a := range Arches {
		d := Describe(a)
		for _, r := range d.IntArgRegs {
			if contains(d.CalleeSavedInt, r) {
				t.Errorf("%s: int arg reg %d is callee-saved", a, r)
			}
		}
		for _, r := range d.FloatArgRegs {
			if contains(d.CalleeSavedFloat, r) {
				t.Errorf("%s: float arg reg %d is callee-saved", a, r)
			}
		}
	}
}

func TestCalleeSavedAllocatableMatch(t *testing.T) {
	// The allocator pools must equal the callee-saved sets.
	for _, a := range Arches {
		d := Describe(a)
		for _, r := range d.AllocatableInt {
			if !contains(d.CalleeSavedInt, r) {
				t.Errorf("%s: allocatable int reg %d not callee-saved", a, r)
			}
		}
		for _, r := range d.AllocatableFloat {
			if !contains(d.CalleeSavedFloat, r) {
				t.Errorf("%s: allocatable float reg %d not callee-saved", a, r)
			}
		}
	}
}

func TestIsCalleeSaved(t *testing.T) {
	x := Describe(X86)
	if !x.IsCalleeSaved(RBX) || !x.IsCalleeSaved(RBP) {
		t.Error("x86: rbx/rbp must be callee-saved")
	}
	if x.IsCalleeSaved(RAX) || x.IsCalleeSaved(RDI) {
		t.Error("x86: rax/rdi must not be callee-saved")
	}
	a := Describe(ARM64)
	if !a.IsCalleeSaved(X19) || !a.IsCalleeSaved(X29) || !a.IsCalleeSaved(X30) {
		t.Error("arm64: x19/x29/x30 must be callee-saved")
	}
	if a.IsCalleeSaved(X0) {
		t.Error("arm64: x0 must not be callee-saved")
	}
}

func TestRegNames(t *testing.T) {
	x := Describe(X86)
	if x.IntRegName(RSP) != "rsp" || x.IntRegName(R15) != "r15" {
		t.Error("x86 reg names")
	}
	a := Describe(ARM64)
	if a.IntRegName(SPReg) != "sp" || a.IntRegName(X30) != "x30/lr" {
		t.Error("arm64 reg names")
	}
	if x.FloatRegName(3) != "xmm3" || a.FloatRegName(3) != "v3" {
		t.Error("float reg names")
	}
}

// Instr.Size is a byte: every value an Op can hold, on both ISAs, with
// registers at both ends of the file and immediates at every width
// boundary, encodes in 1..16 bytes.
func TestEncodedSizesPositiveAndBounded(t *testing.T) {
	imms := []int64{0, 127, -127, 1 << 31, -(1 << 31), math.MinInt64, math.MaxInt64}
	for _, a := range Arches {
		for v := 0; v <= math.MaxUint8; v++ {
			op := Op(v)
			for _, reg := range []Reg{0, 15} {
				for _, imm := range imms {
					in := &Instr{Op: op, Rd: reg, Rs1: reg, Imm: imm}
					s := EncodedSize(a, in)
					if s < 1 || s > 16 {
						t.Errorf("%s %s r%d #%d: size %d outside 1..16", a, op, reg, imm, s)
					}
					if a == ARM64 && op != OpLdi && op != OpFLdi && op != OpLea &&
						op != OpAtomicAdd && op != OpAtomicCAS && s != 4 {
						t.Errorf("arm64 %s: expected fixed 4-byte encoding, got %d", op, s)
					}
				}
			}
		}
	}
}

func TestEncodedSizeLdiScalesWithImmediate(t *testing.T) {
	small := EncodedSize(ARM64, &Instr{Op: OpLdi, Imm: 7})
	big := EncodedSize(ARM64, &Instr{Op: OpLdi, Imm: 1 << 60})
	if small >= big {
		t.Errorf("arm64 ldi: small imm %d >= big imm %d", small, big)
	}
	smallX := EncodedSize(X86, &Instr{Op: OpLdi, Imm: 7})
	bigX := EncodedSize(X86, &Instr{Op: OpLdi, Imm: 1 << 60})
	if smallX >= bigX {
		t.Errorf("x86 ldi: small imm %d >= big imm %d", smallX, bigX)
	}
}

func TestCycleCostsPositive(t *testing.T) {
	err := quick.Check(func(opRaw uint8) bool {
		op := Op(opRaw % uint8(OpPop+1))
		return CycleCost(X86, op) > 0 && CycleCost(ARM64, op) > 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestCycleCostContrast(t *testing.T) {
	// The Xeon flavour must beat the X-Gene flavour on heavy ops (the
	// single-thread performance gap the paper's scheduling exploits).
	for _, op := range []Op{OpDiv, OpFDiv, OpFMul, OpFSqrt, OpLd} {
		if CycleCost(X86, op) >= CycleCost(ARM64, op) {
			t.Errorf("%s: x86 cost %d >= arm cost %d", op, CycleCost(X86, op), CycleCost(ARM64, op))
		}
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpRet}, "ret"},
		{Instr{Op: OpLdi, Rd: 3, Imm: 42}, "ldi      r3, #42"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// The interpreter's cost tables are CycleCost, for every arch and every
// value an Op can hold.
func TestCostTablesMatchCycleCost(t *testing.T) {
	for _, a := range Arches {
		for op, got := range Describe(a).Costs {
			if want := CycleCost(a, Op(op)); got != want {
				t.Errorf("%s %s: table says %d, CycleCost %d", a, Op(op), got, want)
			}
		}
	}
}

// TestInstrStaysPacked: the interpreter's per-instruction record is 48
// bytes, its fields ordered so that Go's layout leaves no padding beyond
// the first word's spare byte. A new field or a per-instruction side table
// is host memory for every instruction of every loaded image (DESIGN.md §3
// records the 32-byte side table that broke the benchmark's live-heap
// bound).
func TestInstrStaysPacked(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n != 48 {
		t.Fatalf("isa.Instr is %d bytes, want 48", n)
	}
}
