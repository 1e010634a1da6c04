// Package ir defines the compiler's typed three-address intermediate
// representation. The mini-C frontend lowers source to this IR; the per-ISA
// backends lower it to machine code. It plays the role LLVM bitcode plays in
// the paper's toolchain: the single point where migration points are
// inserted and live-value metadata is derived, before per-ISA code
// generation diverges.
//
// The IR is deliberately not SSA: virtual registers are mutable, which keeps
// the frontend and the liveness analysis simple while still permitting
// per-ISA register allocation and stack layouts to differ (the property the
// paper's stack transformation exists to reconcile).
package ir

import (
	"fmt"
	"strings"
)

// Type classifies a virtual register or function value.
type Type int

const (
	// I64 is a 64-bit signed integer.
	I64 Type = iota
	// F64 is a 64-bit IEEE float.
	F64
	// Ptr is a 64-bit pointer. Pointers are distinguished from I64 so the
	// stack-transformation runtime knows which live values may point into
	// the stack and need fixup during migration.
	Ptr
	// Void is only used as a function return type.
	Void
)

// String returns the type's source-level spelling.
func (t Type) String() string {
	switch t {
	case I64:
		return "i64"
	case F64:
		return "f64"
	case Ptr:
		return "ptr"
	case Void:
		return "void"
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// IsFloat reports whether values of this type live in the float register file.
func (t Type) IsFloat() bool { return t == F64 }

// VReg names a virtual register within a function. NoV marks "no operand".
type VReg int

// NoV is the absent-operand marker.
const NoV VReg = -1

// BinOp enumerates integer binary operations.
type BinOp uint8

// Integer binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
)

var binName = [...]string{"add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr"}

// String returns the operator mnemonic.
func (b BinOp) String() string { return binName[b] }

// FBinOp enumerates float binary operations.
type FBinOp uint8

// Float binary operators.
const (
	FAdd FBinOp = iota
	FSub
	FMul
	FDiv
)

var fbinName = [...]string{"fadd", "fsub", "fmul", "fdiv"}

// String returns the operator mnemonic.
func (b FBinOp) String() string { return fbinName[b] }

// CmpOp enumerates comparison predicates (signed for integers).
type CmpOp uint8

// Comparison predicates.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

var cmpName = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

// String returns the predicate mnemonic.
func (c CmpOp) String() string { return cmpName[c] }

// Kind discriminates IR instructions.
type Kind uint8

// Instruction kinds.
const (
	KConst      Kind = iota // Dst = Imm
	KFConst                 // Dst = FImm
	KMov                    // Dst = A
	KBin                    // Dst = A <Bin> B
	KBinImm                 // Dst = A <Bin> Imm
	KFBin                   // Dst = A <FBin> B
	KFNeg                   // Dst = -A
	KFSqrt                  // Dst = sqrt(A)
	KCmp                    // Dst = A <Cmp> B (int operands)
	KFCmp                   // Dst = A <Cmp> B (float operands, int result)
	KI2F                    // Dst = float(A)
	KF2I                    // Dst = int(A), truncating
	KLoad                   // Dst = *(A + Imm); width 8, type from Dst
	KStore                  // *(A + Imm) = B
	KLoadB                  // Dst = zext(*(uint8*)(A + Imm))
	KStoreB                 // *(uint8*)(A + Imm) = low byte of B
	KAllocaAddr             // Dst = address of alloca slot #Alloca
	KGlobalAddr             // Dst = &Sym + Imm
	KCall                   // Dst? = Sym(Args...)
	KCallInd                // Dst? = (*A)(Args...); Sig gives the signature
	KSyscall                // Dst = syscall(Imm, Args...)
	KAtomicAdd              // Dst = fetch-add(*(A+Imm), B)
	KAtomicCAS              // Dst = cas(*(A+Imm), old=B, new=C) -> old value
	KRet                    // return A (or nothing if A == NoV)
	KBr                     // goto TargetA
	KCondBr                 // if A != 0 goto TargetA else TargetB
)

// Instr is one IR instruction. Unused fields are zero / NoV. The operator
// enums are bytes and the indices int32, in an order that packs the struct
// into 112 bytes; the passes copy it block by block.
type Instr struct {
	Kind Kind
	Bin  BinOp
	FBin FBinOp
	Cmp  CmpOp

	// CallSiteID uniquely identifies KCall/KCallInd/KSyscall sites within a
	// function. Assigned by Func.Finish; used to align return addresses and
	// live-value metadata across ISAs.
	CallSiteID int32

	Dst VReg
	A   VReg
	B   VReg
	C   VReg

	Imm  int64
	FImm float64
	Sym  string

	Args []VReg

	TargetA int32 // block index
	TargetB int32

	Alloca int32 // alloca slot index for KAllocaAddr
}

// IsCallLike reports whether the instruction transfers control to another
// function (and therefore carries a stackmap record).
func (in *Instr) IsCallLike() bool {
	return in.Kind == KCall || in.Kind == KCallInd || in.Kind == KSyscall
}

// IsTerminator reports whether the instruction ends a basic block.
func (in *Instr) IsTerminator() bool {
	return in.Kind == KRet || in.Kind == KBr || in.Kind == KCondBr
}

// Block is a basic block: a label plus straight-line instructions ending in
// a terminator.
type Block struct {
	Name   string
	Instrs []Instr
}

// Param describes one function parameter.
type Param struct {
	Name string
	Type Type
}

// Sig is a function signature, used for indirect calls.
type Sig struct {
	Params []Type
	Ret    Type
}

// Func is an IR function.
type Func struct {
	Name   string
	Params []Param
	Ret    Type

	// Blocks[0] is the entry block.
	Blocks []*Block

	// vregTypes[i] is the type of VReg(i). Parameters occupy vregs 0..len-1.
	vregTypes []Type

	// AllocaSizes[i] is the byte size of stack slot i (8-byte aligned).
	AllocaSizes []int64
	// AllocaPtr[i] marks slots that may hold pointer values. Only these are
	// eligible for the stack transformer's content pointer fixup; plain
	// data slots (char buffers, int/float arrays) are copied verbatim so a
	// byte pattern that happens to look like a stack address is never
	// rewritten.
	AllocaPtr []bool

	// NumCallSites is the number of call-like sites after Finish.
	NumCallSites int

	// NoMigrate suppresses migration-point insertion (runtime/library code,
	// matching the paper's "applications cannot migrate during library code
	// execution").
	NoMigrate bool

	// IsEntry marks thread entry shims (__start, __thread_start); the stack
	// unwinder stops at them (their return address is the 0 sentinel).
	IsEntry bool
}

// NumVRegs returns the number of virtual registers.
func (f *Func) NumVRegs() int { return len(f.vregTypes) }

// TypeOf returns the type of v.
func (f *Func) TypeOf(v VReg) Type { return f.vregTypes[v] }

// NewVReg creates a fresh virtual register of type t.
func (f *Func) NewVReg(t Type) VReg {
	f.vregTypes = append(f.vregTypes, t)
	return VReg(len(f.vregTypes) - 1)
}

// NewAlloca creates a stack slot of the given byte size and returns its
// index. Sizes are rounded up to 8 bytes.
func (f *Func) NewAlloca(size int64) int {
	if size <= 0 {
		size = 8
	}
	size = (size + 7) &^ 7
	f.AllocaSizes = append(f.AllocaSizes, size)
	f.AllocaPtr = append(f.AllocaPtr, false)
	return len(f.AllocaSizes) - 1
}

// MarkAllocaPtr records that slot may hold pointer values, making it
// eligible for pointer fixup during stack transformation. Frontends call
// this for pointer-typed locals and arrays of pointers.
func (f *Func) MarkAllocaPtr(slot int) { f.AllocaPtr[slot] = true }

// Finish assigns call-site IDs in deterministic (block, instruction) order.
// It must be called once the function body is complete; the verifier and
// backends require it.
func (f *Func) Finish() {
	id := int32(1)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].IsCallLike() {
				b.Instrs[i].CallSiteID = id
				id++
			}
		}
	}
	f.NumCallSites = int(id - 1)
}

// Global is a module-level datum placed at an identical virtual address on
// every ISA by the aligning linker.
type Global struct {
	Name  string
	Size  int64  // byte size (>= len(Init))
	Init  []byte // initial contents; zero-filled to Size
	Align int64  // required alignment; 8 if zero
	// ReadOnly marks rodata (string literals, constant tables).
	ReadOnly bool
}

// Module is a compilation unit: globals plus functions.
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Func

	funcIdx   map[string]*Func
	globalIdx map[string]*Global
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{
		Name:      name,
		funcIdx:   make(map[string]*Func),
		globalIdx: make(map[string]*Global),
	}
}

// AddFunc registers f; duplicate names are rejected.
func (m *Module) AddFunc(f *Func) error {
	if _, dup := m.funcIdx[f.Name]; dup {
		return fmt.Errorf("ir: duplicate function %q", f.Name)
	}
	if _, dup := m.globalIdx[f.Name]; dup {
		return fmt.Errorf("ir: function %q collides with global", f.Name)
	}
	m.Funcs = append(m.Funcs, f)
	m.funcIdx[f.Name] = f
	return nil
}

// AddGlobal registers g; duplicate names are rejected.
func (m *Module) AddGlobal(g *Global) error {
	if g.Align == 0 {
		g.Align = 8
	}
	if _, dup := m.globalIdx[g.Name]; dup {
		return fmt.Errorf("ir: duplicate global %q", g.Name)
	}
	if _, dup := m.funcIdx[g.Name]; dup {
		return fmt.Errorf("ir: global %q collides with function", g.Name)
	}
	if int64(len(g.Init)) > g.Size {
		return fmt.Errorf("ir: global %q init larger than size", g.Name)
	}
	m.Globals = append(m.Globals, g)
	m.globalIdx[g.Name] = g
	return nil
}

// Func looks up a function by name.
func (m *Module) Func(name string) *Func { return m.funcIdx[name] }

// Global looks up a global by name.
func (m *Module) Global(name string) *Global { return m.globalIdx[name] }

// String renders the module as readable IR assembly (for tests and
// hdcinspect).
func (m *Module) String() string {
	var sb strings.Builder
	for _, g := range m.Globals {
		ro := ""
		if g.ReadOnly {
			ro = " readonly"
		}
		fmt.Fprintf(&sb, "global %s [%d]%s\n", g.Name, g.Size, ro)
	}
	for _, f := range m.Funcs {
		sb.WriteString(f.String())
	}
	return sb.String()
}

// String renders the function as readable IR assembly.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %s=v%d", p.Type, p.Name, i)
	}
	fmt.Fprintf(&sb, ") %s {\n", f.Ret)
	for bi, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s: ; block %d\n", b.Name, bi)
		for i := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", formatInstr(&b.Instrs[i]))
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func formatInstr(in *Instr) string {
	v := func(r VReg) string {
		if r == NoV {
			return "_"
		}
		return fmt.Sprintf("v%d", int(r))
	}
	args := func() string {
		parts := make([]string, len(in.Args))
		for i, a := range in.Args {
			parts[i] = v(a)
		}
		return strings.Join(parts, ", ")
	}
	switch in.Kind {
	case KConst:
		return fmt.Sprintf("%s = const %d", v(in.Dst), in.Imm)
	case KFConst:
		return fmt.Sprintf("%s = fconst %g", v(in.Dst), in.FImm)
	case KMov:
		return fmt.Sprintf("%s = mov %s", v(in.Dst), v(in.A))
	case KBin:
		return fmt.Sprintf("%s = %s %s, %s", v(in.Dst), in.Bin, v(in.A), v(in.B))
	case KBinImm:
		return fmt.Sprintf("%s = %s %s, #%d", v(in.Dst), in.Bin, v(in.A), in.Imm)
	case KFBin:
		return fmt.Sprintf("%s = %s %s, %s", v(in.Dst), in.FBin, v(in.A), v(in.B))
	case KFNeg:
		return fmt.Sprintf("%s = fneg %s", v(in.Dst), v(in.A))
	case KFSqrt:
		return fmt.Sprintf("%s = fsqrt %s", v(in.Dst), v(in.A))
	case KCmp:
		return fmt.Sprintf("%s = cmp.%s %s, %s", v(in.Dst), in.Cmp, v(in.A), v(in.B))
	case KFCmp:
		return fmt.Sprintf("%s = fcmp.%s %s, %s", v(in.Dst), in.Cmp, v(in.A), v(in.B))
	case KI2F:
		return fmt.Sprintf("%s = i2f %s", v(in.Dst), v(in.A))
	case KF2I:
		return fmt.Sprintf("%s = f2i %s", v(in.Dst), v(in.A))
	case KLoad:
		return fmt.Sprintf("%s = load [%s%+d]", v(in.Dst), v(in.A), in.Imm)
	case KStore:
		return fmt.Sprintf("store [%s%+d], %s", v(in.A), in.Imm, v(in.B))
	case KLoadB:
		return fmt.Sprintf("%s = loadb [%s%+d]", v(in.Dst), v(in.A), in.Imm)
	case KStoreB:
		return fmt.Sprintf("storeb [%s%+d], %s", v(in.A), in.Imm, v(in.B))
	case KAllocaAddr:
		return fmt.Sprintf("%s = alloca.addr #%d", v(in.Dst), in.Alloca)
	case KGlobalAddr:
		return fmt.Sprintf("%s = global.addr %s%+d", v(in.Dst), in.Sym, in.Imm)
	case KCall:
		if in.Dst == NoV {
			return fmt.Sprintf("call %s(%s) ; cs=%d", in.Sym, args(), in.CallSiteID)
		}
		return fmt.Sprintf("%s = call %s(%s) ; cs=%d", v(in.Dst), in.Sym, args(), in.CallSiteID)
	case KCallInd:
		return fmt.Sprintf("%s = callind (%s)(%s) ; cs=%d", v(in.Dst), v(in.A), args(), in.CallSiteID)
	case KSyscall:
		return fmt.Sprintf("%s = syscall #%d(%s) ; cs=%d", v(in.Dst), in.Imm, args(), in.CallSiteID)
	case KAtomicAdd:
		return fmt.Sprintf("%s = atomadd [%s%+d], %s", v(in.Dst), v(in.A), in.Imm, v(in.B))
	case KAtomicCAS:
		return fmt.Sprintf("%s = atomcas [%s%+d], %s -> %s", v(in.Dst), v(in.A), in.Imm, v(in.B), v(in.C))
	case KRet:
		if in.A == NoV {
			return "ret"
		}
		return fmt.Sprintf("ret %s", v(in.A))
	case KBr:
		return fmt.Sprintf("br @%d", in.TargetA)
	case KCondBr:
		return fmt.Sprintf("condbr %s @%d @%d", v(in.A), in.TargetA, in.TargetB)
	}
	return fmt.Sprintf("?kind(%d)", int(in.Kind))
}
