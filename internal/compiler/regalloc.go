package compiler

import (
	"sort"

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

// frame is the per-ISA frame layout of one function.
type frame struct {
	homes []home
	// usedCSInt / usedCSFloat: callee-saved registers the prologue must save,
	// in save order, with their FP-relative save-slot offsets.
	saveRegs []savedReg
	// allocaOff[i] is the FP-relative offset of alloca slot i.
	allocaOff []int64
	// localSize is the FP-to-lowest-local distance (before out-args).
	localSize int64
	// outArgBytes is the outgoing stack-argument area (at SP).
	outArgBytes int64
	// frameSize = FP - SP in steady state.
	frameSize int64
}

type savedReg struct {
	reg     isa.Reg
	isFloat bool
	off     int64
}

// maxStackArgBytes scans the function's call sites and returns the size of
// the largest outgoing stack-argument area required under desc's ABI.
func maxStackArgBytes(m *ir.Module, f *ir.Func, desc *isa.Desc) int64 {
	var max int64
	for _, blk := range f.Blocks {
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			var types []ir.Type
			switch in.Kind {
			case ir.KCall:
				callee := m.Func(in.Sym)
				for _, p := range callee.Params {
					types = append(types, p.Type)
				}
			case ir.KCallInd:
				for _, a := range in.Args {
					types = append(types, f.TypeOf(a))
				}
			default:
				continue
			}
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
// desc's ABI. Returned slices are parallel to types: reg[i] is the arg
// register (or isa.NoReg) and stackIdx[i] the 0-based stack slot (or -1).
func argLocs(types []ir.Type, desc *isa.Desc) (reg []isa.Reg, stackIdx []int) {
	reg = make([]isa.Reg, len(types))
	stackIdx = make([]int, len(types))
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

// buildFrame assigns vreg homes and computes the frame layout for f on desc.
func buildFrame(m *ir.Module, f *ir.Func, lv *liveness, desc *isa.Desc) *frame {
	nv := f.NumVRegs()
	fr := &frame{homes: make([]home, nv)}

	// Mark used vregs (params are always "used": they must be homed).
	used := make([]bool, nv)
	for i := range f.Params {
		used[i] = true
	}
	var ubuf []ir.VReg
	for _, blk := range f.Blocks {
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			ubuf = uses(in, ubuf)
			for _, v := range ubuf {
				used[v] = true
			}
			if dv := def(in); dv != ir.NoV {
				used[dv] = true
			}
		}
	}

	// Priority order: weight descending, vreg ascending for determinism.
	order := make([]int, 0, nv)
	for v := 0; v < nv; v++ {
		if used[v] {
			order = append(order, v)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		wi, wj := lv.weight[order[i]], lv.weight[order[j]]
		if wi != wj {
			return wi > wj
		}
		return order[i] < order[j]
	})

	intPool := desc.CalleeSavedInt
	floatPool := desc.CalleeSavedFloat
	nextInt, nextFloat := 0, 0
	usedInt := map[isa.Reg]bool{}
	usedFloat := map[isa.Reg]bool{}

	for _, v := range order {
		isF := f.TypeOf(ir.VReg(v)).IsFloat()
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
	fr.allocaOff = make([]int64, len(f.AllocaSizes))
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
	fr.outArgBytes = maxStackArgBytes(m, f, desc)
	total := fr.localSize + fr.outArgBytes
	// Round the frame so SP stays ISA-aligned (both ISAs use 16 here; the
	// arm64 prologue additionally accounts for its 16-byte FP/LR pair).
	total = (total + 15) &^ 15
	fr.frameSize = total
	return fr
}
