package compiler

import (
	"heterodc/internal/ir"
)

// liveness computes, for every call-like instruction of f, the set of
// virtual registers live across it. It runs once on the IR, so the live set
// at each call site — the set the stackmaps describe — is identical for
// every ISA backend, which is the property that lets the runtime correlate
// live values across architectures.
//
// A liveness is reused from function to function: compute overwrites every
// set, and its arrays grow to the largest function seen, so a compilation
// allocates them once.
type liveness struct {
	f *ir.Func
	// words is the number of uint64 words in one vreg set.
	words int
	// ncalls is the number of call-like instructions.
	ncalls int
	// calls holds one set per call-like instruction, in (block, instruction)
	// order: the vregs live after the call, less the call's own result.
	calls []uint64
	// blocks holds four sets per block (use, def, live-in, live-out) and
	// one scratch set.
	blocks []uint64
	// weight[v] is the allocation priority of vreg v (loop-weighted use count).
	weight []int64
	depth  []int
	ubuf   []ir.VReg
}

// bitset is a simple word-packed vreg set.
type bitset []uint64

func (b bitset) set(i ir.VReg)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i ir.VReg)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i ir.VReg) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// orInto ors src into b and reports whether b changed.
func (b bitset) orInto(src bitset) bool {
	changed := false
	for i, w := range src {
		if b[i]|w != b[i] {
			b[i] |= w
			changed = true
		}
	}
	return changed
}

// uses returns the vregs read by in (into buf, returned).
func uses(in *ir.Instr, buf []ir.VReg) []ir.VReg {
	buf = buf[:0]
	switch in.Kind {
	case ir.KConst, ir.KFConst, ir.KAllocaAddr, ir.KGlobalAddr, ir.KBr:
	case ir.KMov, ir.KFNeg, ir.KFSqrt, ir.KI2F, ir.KF2I, ir.KBinImm,
		ir.KLoad, ir.KLoadB, ir.KRet, ir.KCondBr:
		buf = addUse(buf, in.A)
	case ir.KBin, ir.KFBin, ir.KCmp, ir.KFCmp, ir.KStore, ir.KStoreB, ir.KAtomicAdd:
		buf = addUse(buf, in.A)
		buf = addUse(buf, in.B)
	case ir.KAtomicCAS:
		buf = addUse(buf, in.A)
		buf = addUse(buf, in.B)
		buf = addUse(buf, in.C)
	case ir.KCall, ir.KSyscall:
		for _, a := range in.Args {
			buf = addUse(buf, a)
		}
	case ir.KCallInd:
		buf = addUse(buf, in.A)
		for _, a := range in.Args {
			buf = addUse(buf, a)
		}
	}
	return buf
}

func addUse(buf []ir.VReg, v ir.VReg) []ir.VReg {
	if v != ir.NoV {
		buf = append(buf, v)
	}
	return buf
}

// def returns the vreg written by in, or NoV.
func def(in *ir.Instr) ir.VReg {
	switch in.Kind {
	case ir.KStore, ir.KStoreB, ir.KRet, ir.KBr, ir.KCondBr:
		return ir.NoV
	}
	return in.Dst
}

// successors returns the block successors of the terminator in (into buf,
// returned).
func successors(in *ir.Instr, buf *[2]int) []int {
	switch in.Kind {
	case ir.KBr:
		buf[0] = in.TargetA
		return buf[:1]
	case ir.KCondBr:
		buf[0], buf[1] = in.TargetA, in.TargetB
		return buf[:2]
	}
	return nil
}

// grow returns s resized to n elements, all zero, reusing its array when it
// is large enough.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// compute runs the standard backward dataflow to a fixed point over f.
func (lv *liveness) compute(f *ir.Func) {
	nv := f.NumVRegs()
	nb := len(f.Blocks)
	w := (nv + 63) / 64
	lv.f, lv.words = f, w
	calls := 0
	for _, blk := range f.Blocks {
		for ii := range blk.Instrs {
			if blk.Instrs[ii].IsCallLike() {
				calls++
			}
		}
	}
	lv.ncalls = calls
	lv.calls = grow(lv.calls, calls*w)
	lv.blocks = grow(lv.blocks, (4*nb+1)*w)
	set := func(b, k int) bitset { return bitset(lv.blocks[(4*b+k)*w : (4*b+k+1)*w]) }
	const use, dfn, in, out = 0, 1, 2, 3

	// Block-level use/def.
	ubuf := lv.ubuf
	for bi, blk := range f.Blocks {
		u, d := set(bi, use), set(bi, dfn)
		for ii := range blk.Instrs {
			ins := &blk.Instrs[ii]
			ubuf = uses(ins, ubuf)
			for _, v := range ubuf {
				if !d.has(v) {
					u.set(v)
				}
			}
			if dv := def(ins); dv != ir.NoV {
				d.set(dv)
			}
		}
	}

	// Fixed point on block live-in: in[b] = use[b] ∪ (out[b] − def[b]),
	// out[b] = ∪ in[succ].
	tmp := bitset(lv.blocks[4*nb*w : (4*nb+1)*w])
	var sbuf [2]int
	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			blk := f.Blocks[bi]
			o := set(bi, out)
			for _, s := range successors(&blk.Instrs[len(blk.Instrs)-1], &sbuf) {
				if o.orInto(set(s, in)) {
					changed = true
				}
			}
			u, d := set(bi, use), set(bi, dfn)
			for i := range tmp {
				tmp[i] = o[i]&^d[i] | u[i]
			}
			if set(bi, in).orInto(tmp) {
				changed = true
			}
		}
	}

	// Live sets across calls, from a backward sweep within each block.
	k := calls
	for bi := nb - 1; bi >= 0; bi-- {
		blk := f.Blocks[bi]
		live := tmp
		copy(live, set(bi, out))
		for ii := len(blk.Instrs) - 1; ii >= 0; ii-- {
			ins := &blk.Instrs[ii]
			dv := def(ins)
			if dv != ir.NoV {
				live.clear(dv)
			}
			if ins.IsCallLike() {
				// live is now the live-out set less the call's own result.
				k--
				copy(lv.calls[k*w:(k+1)*w], live)
			}
			ubuf = uses(ins, ubuf)
			for _, v := range ubuf {
				live.set(v)
			}
		}
	}
	lv.ubuf = ubuf

	lv.computeWeights()
}

// computeWeights assigns each vreg a loop-depth-weighted use count, the
// priority key for callee-saved register assignment.
func (lv *liveness) computeWeights() {
	f := lv.f
	lv.weight = grow(lv.weight, f.NumVRegs())
	lv.depth = grow(lv.depth, len(f.Blocks))
	depth := lv.depth
	// A back edge j->k (k <= j) makes blocks k..j one loop level deeper.
	var sbuf [2]int
	for bi, blk := range f.Blocks {
		for _, s := range successors(&blk.Instrs[len(blk.Instrs)-1], &sbuf) {
			if s <= bi {
				for b := s; b <= bi; b++ {
					depth[b]++
				}
			}
		}
	}
	ubuf := lv.ubuf
	for bi, blk := range f.Blocks {
		w := int64(1)
		for d := 0; d < depth[bi] && d < 6; d++ {
			w *= 8
		}
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			ubuf = uses(in, ubuf)
			for _, v := range ubuf {
				lv.weight[v] += w
			}
			if dv := def(in); dv != ir.NoV {
				lv.weight[dv] += w
			}
		}
	}
	lv.ubuf = ubuf
}

// liveAcrossCall returns the vregs live after the k-th call-like
// instruction of the function, in (block, instruction) order, excluding the
// call's own destination — the stackmap set. The set is valid until the
// next compute.
func (lv *liveness) liveAcrossCall(k int) bitset {
	return bitset(lv.calls[k*lv.words : (k+1)*lv.words])
}
