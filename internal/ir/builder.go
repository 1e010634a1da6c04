package ir

import "fmt"

// Builder incrementally constructs a Func. It is used by the mini-C code
// generator, by hand-written runtime-library functions, and by the
// property-test program generator.
//
// The builder keeps what it emits in emission order and lays it out at
// Done, after whatever each block already holds, in one array for the
// whole function: a function's instructions cost one allocation however its
// blocks interleave. Until Done, a block's Instrs do not show what was
// emitted into it; Terminated answers for the current block.
type Builder struct {
	F   *Func
	cur int // current block index
	s   *Scratch
	// lent says F's vreg types and block list live in s's arrays until
	// Done copies them out.
	lent bool
}

// Scratch holds a builder's instructions in emission order until Done lays
// them out. A generator that builds function after function through one
// Scratch (Scratch.NewFunc) grows its arrays once: each function's vreg
// types and block list grow in the Scratch and leave it at Done as
// exact-size copies, and every function's blocks are carved from shared
// chunks. A Scratch serves one builder at a time. The zero value is ready
// to use.
type Scratch struct {
	b      Builder // the builder NewFunc hands out
	instrs []Instr
	block  []int32 // block[k] is the block instrs[k] goes to
	count  []int32 // count[b] is the number of instructions emitted into block b
	term   []bool  // term[b]: block b's last emitted instruction is a terminator

	types  []Type   // the current function's vreg types, when lent
	blocks []*Block // the current function's block list, when lent
	// chunk is where new blocks are carved from; each chunk doubles the
	// last, up to blockChunk.
	chunk []Block
}

// Reserve makes room for n instructions, so that a generator that can bound
// its largest function grows the buffer once; the buffer grows past n as
// needed.
func (s *Scratch) Reserve(n int) {
	if cap(s.instrs) < n {
		s.instrs = make([]Instr, 0, n)
		s.block = make([]int32, 0, n)
	}
}

// blockChunk caps a chunk of blocks. The mini-C generator builds each
// program, 225 to 354 blocks in 51 to 65 functions for the NPB builds of
// the toolchain benchmark, through one Scratch: chunks of 4 to 128 blocks
// hold the first 252, and the last chunk's unused tail stays under 5 KiB.
const blockChunk = 128

// NewFunc starts a new function: parameters become vregs 0..n-1.
func NewFunc(name string, ret Type, params ...Param) *Builder {
	b := new(Scratch).NewFunc(name, ret, params...)
	b.lent = false // no other function will use the arrays this one grows
	return b
}

// NewFunc is NewFunc for a builder that emits through s; s must not serve
// another builder until this one is Done, and the builder is not to be
// used again once s starts the next function.
func (s *Scratch) NewFunc(name string, ret Type, params ...Param) *Builder {
	f := &Func{Name: name, Params: params, Ret: ret, vregTypes: s.types[:0], Blocks: s.blocks[:0]}
	for _, p := range params {
		f.NewVReg(p.Type)
	}
	s.instrs, s.block, s.count, s.term = s.instrs[:0], s.block[:0], s.count[:0], s.term[:0]
	s.b = Builder{F: f, s: s, lent: true}
	s.b.NewBlock("entry")
	return &s.b
}

// scratch returns the builder's Scratch, taking a fresh one, sized for the
// current blocks, if Done has returned the last.
func (b *Builder) scratch() *Scratch {
	if b.s == nil {
		b.s = &Scratch{count: make([]int32, len(b.F.Blocks)), term: make([]bool, len(b.F.Blocks))}
	}
	return b.s
}

// NewBlock appends a block and makes it current; returns its index.
func (b *Builder) NewBlock(name string) int {
	s := b.scratch()
	if len(s.chunk) == cap(s.chunk) {
		s.chunk = make([]Block, 0, min(blockChunk, max(4, 2*cap(s.chunk))))
	}
	s.chunk = append(s.chunk, Block{Name: name})
	b.F.Blocks = append(b.F.Blocks, &s.chunk[len(s.chunk)-1])
	s.count = append(s.count, 0)
	s.term = append(s.term, false)
	b.cur = len(b.F.Blocks) - 1
	return b.cur
}

// Block returns the current block index.
func (b *Builder) Block() int { return b.cur }

// SetBlock switches the insertion point to block idx.
func (b *Builder) SetBlock(idx int) { b.cur = idx }

// emit appends an instruction to the current block.
func (b *Builder) emit(in Instr) {
	s := b.scratch()
	s.instrs = append(s.instrs, in)
	s.block = append(s.block, int32(b.cur))
	s.count[b.cur]++
	s.term[b.cur] = in.IsTerminator()
}

// Terminated reports whether the current block ends in a terminator.
func (b *Builder) Terminated() bool {
	if s := b.s; s != nil && s.count[b.cur] > 0 {
		return s.term[b.cur]
	}
	ins := b.F.Blocks[b.cur].Instrs
	return len(ins) > 0 && ins[len(ins)-1].IsTerminator()
}

// Param returns the vreg holding parameter i.
func (b *Builder) Param(i int) VReg { return VReg(i) }

// Const materialises an integer constant.
func (b *Builder) Const(v int64) VReg {
	d := b.F.NewVReg(I64)
	b.emit(Instr{Kind: KConst, Dst: d, Imm: v, A: NoV, B: NoV, C: NoV})
	return d
}

// FConst materialises a float constant.
func (b *Builder) FConst(v float64) VReg {
	d := b.F.NewVReg(F64)
	b.emit(Instr{Kind: KFConst, Dst: d, FImm: v, A: NoV, B: NoV, C: NoV})
	return d
}

// Mov copies src into a fresh vreg of the same type.
func (b *Builder) Mov(src VReg) VReg {
	d := b.F.NewVReg(b.F.TypeOf(src))
	b.emit(Instr{Kind: KMov, Dst: d, A: src, B: NoV, C: NoV})
	return d
}

// MovTo copies src into an existing vreg (mutable-variable assignment).
func (b *Builder) MovTo(dst, src VReg) {
	b.emit(Instr{Kind: KMov, Dst: dst, A: src, B: NoV, C: NoV})
}

// ConstTo writes an integer constant into an existing vreg.
func (b *Builder) ConstTo(dst VReg, v int64) {
	b.emit(Instr{Kind: KConst, Dst: dst, Imm: v, A: NoV, B: NoV, C: NoV})
}

// Bin emits an integer binary op.
func (b *Builder) Bin(op BinOp, x, y VReg) VReg {
	d := b.F.NewVReg(I64)
	b.emit(Instr{Kind: KBin, Bin: op, Dst: d, A: x, B: y, C: NoV})
	return d
}

// BinImm emits an integer binary op with an immediate right operand.
func (b *Builder) BinImm(op BinOp, x VReg, imm int64) VReg {
	d := b.F.NewVReg(I64)
	b.emit(Instr{Kind: KBinImm, Bin: op, Dst: d, A: x, Imm: imm, B: NoV, C: NoV})
	return d
}

// PtrAdd adds a byte offset (in a vreg) to a pointer, yielding a pointer.
func (b *Builder) PtrAdd(p, off VReg) VReg {
	d := b.F.NewVReg(Ptr)
	b.emit(Instr{Kind: KBin, Bin: Add, Dst: d, A: p, B: off, C: NoV})
	return d
}

// FBin emits a float binary op.
func (b *Builder) FBin(op FBinOp, x, y VReg) VReg {
	d := b.F.NewVReg(F64)
	b.emit(Instr{Kind: KFBin, FBin: op, Dst: d, A: x, B: y, C: NoV})
	return d
}

// FNeg negates a float.
func (b *Builder) FNeg(x VReg) VReg {
	d := b.F.NewVReg(F64)
	b.emit(Instr{Kind: KFNeg, Dst: d, A: x, B: NoV, C: NoV})
	return d
}

// FSqrt takes a float square root.
func (b *Builder) FSqrt(x VReg) VReg {
	d := b.F.NewVReg(F64)
	b.emit(Instr{Kind: KFSqrt, Dst: d, A: x, B: NoV, C: NoV})
	return d
}

// Cmp emits an integer comparison (result 0/1 in an I64 vreg).
func (b *Builder) Cmp(op CmpOp, x, y VReg) VReg {
	d := b.F.NewVReg(I64)
	b.emit(Instr{Kind: KCmp, Cmp: op, Dst: d, A: x, B: y, C: NoV})
	return d
}

// FCmp emits a float comparison.
func (b *Builder) FCmp(op CmpOp, x, y VReg) VReg {
	d := b.F.NewVReg(I64)
	b.emit(Instr{Kind: KFCmp, Cmp: op, Dst: d, A: x, B: y, C: NoV})
	return d
}

// I2F converts int to float.
func (b *Builder) I2F(x VReg) VReg {
	d := b.F.NewVReg(F64)
	b.emit(Instr{Kind: KI2F, Dst: d, A: x, B: NoV, C: NoV})
	return d
}

// F2I converts float to int (truncating).
func (b *Builder) F2I(x VReg) VReg {
	d := b.F.NewVReg(I64)
	b.emit(Instr{Kind: KF2I, Dst: d, A: x, B: NoV, C: NoV})
	return d
}

// Load reads a 64-bit value of type t from [addr+off].
func (b *Builder) Load(t Type, addr VReg, off int64) VReg {
	d := b.F.NewVReg(t)
	b.emit(Instr{Kind: KLoad, Dst: d, A: addr, Imm: off, B: NoV, C: NoV})
	return d
}

// Store writes val to [addr+off].
func (b *Builder) Store(addr VReg, off int64, val VReg) {
	b.emit(Instr{Kind: KStore, A: addr, Imm: off, B: val, Dst: NoV, C: NoV})
}

// LoadB reads a zero-extended byte.
func (b *Builder) LoadB(addr VReg, off int64) VReg {
	d := b.F.NewVReg(I64)
	b.emit(Instr{Kind: KLoadB, Dst: d, A: addr, Imm: off, B: NoV, C: NoV})
	return d
}

// StoreB writes the low byte of val.
func (b *Builder) StoreB(addr VReg, off int64, val VReg) {
	b.emit(Instr{Kind: KStoreB, A: addr, Imm: off, B: val, Dst: NoV, C: NoV})
}

// Alloca creates a stack slot and returns a pointer to it.
func (b *Builder) Alloca(size int64) VReg {
	slot := b.F.NewAlloca(size)
	d := b.F.NewVReg(Ptr)
	b.emit(Instr{Kind: KAllocaAddr, Dst: d, Alloca: int32(slot), A: NoV, B: NoV, C: NoV})
	return d
}

// AllocaAddr re-takes the address of an existing slot.
func (b *Builder) AllocaAddr(slot int) VReg {
	d := b.F.NewVReg(Ptr)
	b.emit(Instr{Kind: KAllocaAddr, Dst: d, Alloca: int32(slot), A: NoV, B: NoV, C: NoV})
	return d
}

// GlobalAddr takes the address of a global symbol.
func (b *Builder) GlobalAddr(sym string, off int64) VReg {
	d := b.F.NewVReg(Ptr)
	b.emit(Instr{Kind: KGlobalAddr, Dst: d, Sym: sym, Imm: off, A: NoV, B: NoV, C: NoV})
	return d
}

// Call invokes sym with args; ret gives the callee's return type (use Void
// for procedures, in which case NoV is returned).
func (b *Builder) Call(ret Type, sym string, args ...VReg) VReg {
	d := NoV
	if ret != Void {
		d = b.F.NewVReg(ret)
	}
	b.emit(Instr{Kind: KCall, Dst: d, Sym: sym, Args: args, A: NoV, B: NoV, C: NoV})
	return d
}

// CallInd invokes the function whose address is in fp.
func (b *Builder) CallInd(ret Type, fp VReg, args ...VReg) VReg {
	d := NoV
	if ret != Void {
		d = b.F.NewVReg(ret)
	}
	b.emit(Instr{Kind: KCallInd, Dst: d, A: fp, Args: args, B: NoV, C: NoV})
	return d
}

// Syscall traps into the kernel with the given syscall number.
func (b *Builder) Syscall(num int64, args ...VReg) VReg {
	d := b.F.NewVReg(I64)
	b.emit(Instr{Kind: KSyscall, Dst: d, Imm: num, Args: args, A: NoV, B: NoV, C: NoV})
	return d
}

// AtomicAdd emits a sequentially-consistent fetch-add on [addr+off].
func (b *Builder) AtomicAdd(addr VReg, off int64, delta VReg) VReg {
	d := b.F.NewVReg(I64)
	b.emit(Instr{Kind: KAtomicAdd, Dst: d, A: addr, Imm: off, B: delta, C: NoV})
	return d
}

// AtomicCAS emits compare-and-swap on [addr+off]; returns the old value.
func (b *Builder) AtomicCAS(addr VReg, off int64, old, new VReg) VReg {
	d := b.F.NewVReg(I64)
	b.emit(Instr{Kind: KAtomicCAS, Dst: d, A: addr, Imm: off, B: old, C: new})
	return d
}

// Ret returns v (or nothing when v == NoV).
func (b *Builder) Ret(v VReg) {
	b.emit(Instr{Kind: KRet, A: v, Dst: NoV, B: NoV, C: NoV})
}

// Br branches unconditionally to block target.
func (b *Builder) Br(target int) {
	b.emit(Instr{Kind: KBr, TargetA: int32(target), Dst: NoV, A: NoV, B: NoV, C: NoV})
}

// CondBr branches to ifTrue when cond != 0, else to ifFalse.
func (b *Builder) CondBr(cond VReg, ifTrue, ifFalse int) {
	b.emit(Instr{Kind: KCondBr, A: cond, TargetA: int32(ifTrue), TargetB: int32(ifFalse), Dst: NoV, B: NoV, C: NoV})
}

// Done lays out the emitted instructions, finalises the function (assigns
// call-site IDs) and returns it.
func (b *Builder) Done() *Func {
	if s := b.s; s != nil {
		b.layout(s)
		if b.lent {
			f := b.F
			s.types, s.blocks = f.vregTypes[:0], f.Blocks[:0]
			f.vregTypes = append(make([]Type, 0, len(f.vregTypes)), f.vregTypes...)
			f.Blocks = append(make([]*Block, 0, len(f.Blocks)), f.Blocks...)
			b.lent = false
		}
		b.s = nil
	}
	b.F.Finish()
	return b.F
}

// layout appends each block's emitted instructions to it. Every block that
// gains instructions moves, with what it held, into one shared array of
// exactly their total length.
func (b *Builder) layout(s *Scratch) {
	total := len(s.instrs)
	for bi, n := range s.count {
		if n > 0 {
			total += len(b.F.Blocks[bi].Instrs)
		}
	}
	all := make([]Instr, total)
	// From here on count[bi] is the index in all of block bi's next
	// emitted instruction.
	off := 0
	for bi, n := range s.count {
		if n == 0 {
			continue
		}
		blk := b.F.Blocks[bi]
		held := copy(all[off:], blk.Instrs)
		end := off + held + int(n)
		blk.Instrs = all[off:end:end]
		s.count[bi] = int32(off + held)
		off = end
	}
	for k := range s.instrs {
		bi := s.block[k]
		all[s.count[bi]] = s.instrs[k]
		s.count[bi]++
	}
}

// Verify checks module well-formedness: every block ends in a terminator,
// branch targets are in range, operand types are consistent, called symbols
// exist (unless external), and call-site IDs have been assigned.
func (m *Module) Verify() error {
	for _, f := range m.Funcs {
		if err := m.verifyFunc(f); err != nil {
			return fmt.Errorf("ir: func %s: %w", f.Name, err)
		}
	}
	return nil
}

func (m *Module) verifyFunc(f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	nv := f.NumVRegs()
	checkV := func(v VReg, what string) error {
		if v == NoV {
			return fmt.Errorf("%s operand missing", what)
		}
		if int(v) < 0 || int(v) >= nv {
			return fmt.Errorf("%s vreg v%d out of range", what, int(v))
		}
		return nil
	}
	wantType := func(v VReg, t Type, what string) error {
		if err := checkV(v, what); err != nil {
			return err
		}
		got := f.TypeOf(v)
		if t == I64 && got == Ptr || t == Ptr && got == I64 {
			return nil // int/pointer interchange is permitted (C semantics)
		}
		if got != t {
			return fmt.Errorf("%s: v%d has type %s, want %s", what, int(v), got, t)
		}
		return nil
	}
	for bi, blk := range f.Blocks {
		if len(blk.Instrs) == 0 {
			return fmt.Errorf("block %d (%s) empty", bi, blk.Name)
		}
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			last := ii == len(blk.Instrs)-1
			if in.IsTerminator() != last {
				if last {
					return fmt.Errorf("block %d does not end in terminator", bi)
				}
				return fmt.Errorf("block %d has terminator mid-block at %d", bi, ii)
			}
			if err := m.verifyInstr(f, in, checkV, wantType); err != nil {
				return fmt.Errorf("block %d instr %d (%s): %w", bi, ii, formatInstr(in), err)
			}
			if in.IsCallLike() && in.CallSiteID == 0 {
				return fmt.Errorf("block %d instr %d: call site id unassigned (missing Finish?)", bi, ii)
			}
		}
	}
	return nil
}

func (m *Module) verifyInstr(f *Func, in *Instr,
	checkV func(VReg, string) error, wantType func(VReg, Type, string) error) error {
	switch in.Kind {
	case KConst:
		return wantType(in.Dst, I64, "dst")
	case KFConst:
		return wantType(in.Dst, F64, "dst")
	case KMov:
		if err := checkV(in.A, "src"); err != nil {
			return err
		}
		if f.TypeOf(in.A).IsFloat() != f.TypeOf(in.Dst).IsFloat() {
			return fmt.Errorf("mov across register files")
		}
		return nil
	case KBin, KBinImm:
		if err := wantType(in.A, I64, "lhs"); err != nil {
			return err
		}
		if in.Kind == KBin {
			if err := wantType(in.B, I64, "rhs"); err != nil {
				return err
			}
		}
		if f.TypeOf(in.Dst).IsFloat() {
			return fmt.Errorf("int op writing float dst")
		}
		return nil
	case KFBin:
		if err := wantType(in.A, F64, "lhs"); err != nil {
			return err
		}
		if err := wantType(in.B, F64, "rhs"); err != nil {
			return err
		}
		return wantType(in.Dst, F64, "dst")
	case KFNeg, KFSqrt:
		if err := wantType(in.A, F64, "src"); err != nil {
			return err
		}
		return wantType(in.Dst, F64, "dst")
	case KCmp:
		if err := wantType(in.A, I64, "lhs"); err != nil {
			return err
		}
		if err := wantType(in.B, I64, "rhs"); err != nil {
			return err
		}
		return wantType(in.Dst, I64, "dst")
	case KFCmp:
		if err := wantType(in.A, F64, "lhs"); err != nil {
			return err
		}
		if err := wantType(in.B, F64, "rhs"); err != nil {
			return err
		}
		return wantType(in.Dst, I64, "dst")
	case KI2F:
		if err := wantType(in.A, I64, "src"); err != nil {
			return err
		}
		return wantType(in.Dst, F64, "dst")
	case KF2I:
		if err := wantType(in.A, F64, "src"); err != nil {
			return err
		}
		return wantType(in.Dst, I64, "dst")
	case KLoad:
		if err := wantType(in.A, Ptr, "addr"); err != nil {
			return err
		}
		return checkV(in.Dst, "dst")
	case KStore:
		if err := wantType(in.A, Ptr, "addr"); err != nil {
			return err
		}
		return checkV(in.B, "val")
	case KLoadB:
		if err := wantType(in.A, Ptr, "addr"); err != nil {
			return err
		}
		return wantType(in.Dst, I64, "dst")
	case KStoreB:
		if err := wantType(in.A, Ptr, "addr"); err != nil {
			return err
		}
		return wantType(in.B, I64, "val")
	case KAllocaAddr:
		if in.Alloca < 0 || int(in.Alloca) >= len(f.AllocaSizes) {
			return fmt.Errorf("alloca slot %d out of range", in.Alloca)
		}
		return wantType(in.Dst, Ptr, "dst")
	case KGlobalAddr:
		if m.Global(in.Sym) == nil && m.Func(in.Sym) == nil {
			return fmt.Errorf("unknown symbol %q", in.Sym)
		}
		return wantType(in.Dst, Ptr, "dst")
	case KCall:
		callee := m.Func(in.Sym)
		if callee == nil {
			return fmt.Errorf("unknown callee %q", in.Sym)
		}
		if len(in.Args) != len(callee.Params) {
			return fmt.Errorf("call %s: %d args, want %d", in.Sym, len(in.Args), len(callee.Params))
		}
		for i, a := range in.Args {
			if err := wantType(a, callee.Params[i].Type, fmt.Sprintf("arg %d", i)); err != nil {
				return err
			}
		}
		if callee.Ret == Void != (in.Dst == NoV) {
			return fmt.Errorf("call %s: return-value mismatch", in.Sym)
		}
		return nil
	case KCallInd:
		if err := wantType(in.A, Ptr, "funcptr"); err != nil {
			return err
		}
		for i, a := range in.Args {
			if err := checkV(a, fmt.Sprintf("arg %d", i)); err != nil {
				return err
			}
		}
		return nil
	case KSyscall:
		if len(in.Args) > 5 {
			return fmt.Errorf("syscall with %d args (max 5)", len(in.Args))
		}
		for i, a := range in.Args {
			if err := checkV(a, fmt.Sprintf("arg %d", i)); err != nil {
				return err
			}
		}
		return wantType(in.Dst, I64, "dst")
	case KAtomicAdd:
		if err := wantType(in.A, Ptr, "addr"); err != nil {
			return err
		}
		if err := wantType(in.B, I64, "delta"); err != nil {
			return err
		}
		return wantType(in.Dst, I64, "dst")
	case KAtomicCAS:
		if err := wantType(in.A, Ptr, "addr"); err != nil {
			return err
		}
		if err := wantType(in.B, I64, "old"); err != nil {
			return err
		}
		if err := wantType(in.C, I64, "new"); err != nil {
			return err
		}
		return wantType(in.Dst, I64, "dst")
	case KRet:
		if f.Ret == Void {
			if in.A != NoV {
				return fmt.Errorf("void function returning a value")
			}
			return nil
		}
		return wantType(in.A, f.Ret, "ret")
	case KBr:
		if in.TargetA < 0 || int(in.TargetA) >= len(f.Blocks) {
			return fmt.Errorf("branch target %d out of range", in.TargetA)
		}
		return nil
	case KCondBr:
		if err := wantType(in.A, I64, "cond"); err != nil {
			return err
		}
		if in.TargetA < 0 || int(in.TargetA) >= len(f.Blocks) ||
			in.TargetB < 0 || int(in.TargetB) >= len(f.Blocks) {
			return fmt.Errorf("branch target out of range")
		}
		return nil
	}
	return fmt.Errorf("unknown kind %d", int(in.Kind))
}
