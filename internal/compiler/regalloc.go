package compiler

import (
	"cmp"
	"slices"

	"heterodc/internal/ir"
	"heterodc/internal/isa"
)

// home is the per-ISA storage assignment of one virtual register: either a
// callee-saved register or a frame slot. Keeping vreg homes in callee-saved
// registers (only) means values survive calls without caller-save traffic,
// and gives the stack-transformation runtime both location flavours the
// paper handles: register-resident values (found via the callee-save chain)
// and frame-slot values.
type home struct {
	inReg   bool
	reg     isa.Reg
	off     int64 // FP-relative slot offset when !inReg
	isFloat bool
	used    bool // vreg appears in the function at all
}

// frame is the per-ISA frame layout of one function. A lowerer keeps one
// and rebuilds it for every function, reusing its arrays.
type frame struct {
	homes []home
	// used is the set of vregs that appear in the function (parameters
	// always do: they must be homed).
	used bitset
	// saveRegs: callee-saved registers the prologue must save, in save
	// order, with their FP-relative save-slot offsets.
	saveRegs []savedReg
	// allocaOff[i] is the FP-relative offset of alloca slot i.
	allocaOff []int64
	// localSize is the FP-to-lowest-local distance (before out-args).
	localSize int64
	// outArgBytes is the outgoing stack-argument area (at SP).
	outArgBytes int64
	// frameSize = FP - SP in steady state.
	frameSize int64

	// order and types are scratch.
	order []ir.VReg
	types []ir.Type
}

type savedReg struct {
	reg     isa.Reg
	isFloat bool
	off     int64
}

// maxStackArgBytes scans the function's call sites and returns the size of
// the largest outgoing stack-argument area required under desc's ABI.
func (fr *frame) maxStackArgBytes(m *ir.Module, f *ir.Func, desc *isa.Desc) int64 {
	var max int64
	for _, blk := range f.Blocks {
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			types := fr.types[:0]
			switch in.Kind {
			case ir.KCall:
				for _, p := range m.Func(in.Sym).Params {
					types = append(types, p.Type)
				}
			case ir.KCallInd:
				for _, a := range in.Args {
					types = append(types, f.TypeOf(a))
				}
			default:
				continue
			}
			fr.types = types
			n := stackArgCount(types, desc)
			if b := int64(n) * 8; b > max {
				max = b
			}
		}
	}
	return max
}

// stackArgCount returns how many of the given params overflow to the stack.
func stackArgCount(types []ir.Type, desc *isa.Desc) int {
	ints, floats, stack := 0, 0, 0
	for _, t := range types {
		if t.IsFloat() {
			if floats < len(desc.FloatArgRegs) {
				floats++
			} else {
				stack++
			}
		} else {
			if ints < len(desc.IntArgRegs) {
				ints++
			} else {
				stack++
			}
		}
	}
	return stack
}

// argLocs assigns each parameter either a register or a stack index under
// the lowerer's ABI. Returned slices are parallel to types: reg[i] is the
// arg register (or isa.NoReg) and stackIdx[i] the 0-based stack slot (or
// -1). They are the lowerer's scratch, valid until its next argLocs.
func (lo *lowerer) argLocs(types []ir.Type) (reg []isa.Reg, stackIdx []int) {
	desc := lo.desc
	lo.argRegs = grow(lo.argRegs, len(types))
	lo.argStack = grow(lo.argStack, len(types))
	reg, stackIdx = lo.argRegs, lo.argStack
	ints, floats, stack := 0, 0, 0
	for i, t := range types {
		reg[i] = isa.NoReg
		stackIdx[i] = -1
		if t.IsFloat() {
			if floats < len(desc.FloatArgRegs) {
				reg[i] = desc.FloatArgRegs[floats]
				floats++
			} else {
				stackIdx[i] = stack
				stack++
			}
		} else {
			if ints < len(desc.IntArgRegs) {
				reg[i] = desc.IntArgRegs[ints]
				ints++
			} else {
				stackIdx[i] = stack
				stack++
			}
		}
	}
	return reg, stackIdx
}

// build assigns vreg homes and computes the frame layout for f on desc.
func (fr *frame) build(m *ir.Module, f *ir.Func, lv *liveness, desc *isa.Desc) {
	nv := f.NumVRegs()
	fr.homes = grow(fr.homes, nv)
	fr.used = grow(fr.used, lv.words)
	for i := range f.Params {
		fr.used.set(ir.VReg(i))
	}
	ubuf := lv.ubuf
	for _, blk := range f.Blocks {
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			ubuf = uses(in, ubuf)
			for _, v := range ubuf {
				fr.used.set(v)
			}
			if dv := def(in); dv != ir.NoV {
				fr.used.set(dv)
			}
		}
	}
	lv.ubuf = ubuf

	// Priority order: weight descending, vreg ascending for determinism.
	order := fr.order[:0]
	for v := 0; v < nv; v++ {
		if fr.used.has(ir.VReg(v)) {
			order = append(order, ir.VReg(v))
		}
	}
	slices.SortFunc(order, func(a, b ir.VReg) int {
		if c := cmp.Compare(lv.weight[b], lv.weight[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	fr.order = order

	intPool := desc.CalleeSavedInt
	floatPool := desc.CalleeSavedFloat
	nextInt, nextFloat := 0, 0
	var usedInt, usedFloat [256]bool // by isa.Reg

	for _, v := range order {
		isF := f.TypeOf(v).IsFloat()
		h := home{isFloat: isF, used: true}
		if isF {
			if nextFloat < len(floatPool) {
				h.inReg, h.reg = true, floatPool[nextFloat]
				usedFloat[h.reg] = true
				nextFloat++
			}
		} else {
			if nextInt < len(intPool) {
				h.inReg, h.reg = true, intPool[nextInt]
				usedInt[h.reg] = true
				nextInt++
			}
		}
		fr.homes[v] = h
	}

	// Frame layout below FP: callee-saved save slots, then allocas, then
	// spill slots. Offsets are negative.
	off := int64(0)
	// Save slots, in the ISA's canonical callee-saved order (deterministic).
	fr.saveRegs = fr.saveRegs[:0]
	for _, r := range intPool {
		if usedInt[r] {
			off -= 8
			fr.saveRegs = append(fr.saveRegs, savedReg{reg: r, off: off})
		}
	}
	for _, r := range floatPool {
		if usedFloat[r] {
			off -= 8
			fr.saveRegs = append(fr.saveRegs, savedReg{reg: r, isFloat: true, off: off})
		}
	}
	// Alloca slots.
	fr.allocaOff = grow(fr.allocaOff, len(f.AllocaSizes))
	for i, sz := range f.AllocaSizes {
		off -= sz
		fr.allocaOff[i] = off
	}
	// Spill slots for vregs without registers.
	for _, v := range order {
		h := &fr.homes[v]
		if !h.inReg {
			off -= 8
			h.off = off
		}
	}
	fr.localSize = -off
	fr.outArgBytes = fr.maxStackArgBytes(m, f, desc)
	total := fr.localSize + fr.outArgBytes
	// Round the frame so SP stays ISA-aligned (both ISAs use 16 here; the
	// arm64 prologue additionally accounts for its 16-byte FP/LR pair).
	total = (total + 15) &^ 15
	fr.frameSize = total
}
