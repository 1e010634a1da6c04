package compiler

import (
	"heterodc/internal/ir"
)

// InlineTinyFunctions performs bottom-up inlining of trivial callees:
// single-block, alloca-free, call-free functions of at most maxInstrs IR
// instructions. Production compilers inline these at -O3; without it, a
// three-line helper called in a hot loop pays call/return and (worse)
// migration-point overhead on every iteration. Returns the number of call
// sites inlined.
func InlineTinyFunctions(m *ir.Module, maxInstrs, rounds int) int {
	if maxInstrs <= 0 {
		maxInstrs = 24
	}
	if rounds <= 0 {
		rounds = 3
	}
	total := 0
	for r := 0; r < rounds; r++ {
		n := inlineRound(m, maxInstrs)
		total += n
		if n == 0 {
			break
		}
	}
	return total
}

// inlinable reports whether f can be spliced into callers: its entry block
// must be straight-line (no branches, no calls) and end in a return, which
// makes every other block unreachable (the frontend emits a dead implicit-
// return block after explicit returns).
func inlinable(f *ir.Func, maxInstrs int) bool {
	if f.NoMigrate || f.IsEntry {
		return false
	}
	if len(f.AllocaSizes) != 0 {
		return false
	}
	blk := f.Blocks[0]
	if len(blk.Instrs) == 0 || len(blk.Instrs) > maxInstrs {
		return false
	}
	for i := range blk.Instrs {
		in := &blk.Instrs[i]
		if in.IsCallLike() || in.Kind == ir.KBr || in.Kind == ir.KCondBr {
			return false
		}
	}
	return blk.Instrs[len(blk.Instrs)-1].Kind == ir.KRet
}

func inlineRound(m *ir.Module, maxInstrs int) int {
	il := inliner{candidates: map[string]*ir.Func{}}
	for _, f := range m.Funcs {
		if inlinable(f, maxInstrs) {
			il.candidates[f.Name] = f
		}
	}
	if len(il.candidates) == 0 {
		return 0
	}
	count := 0
	for _, f := range m.Funcs {
		for _, blk := range f.Blocks {
			count += il.block(f, blk)
		}
	}
	return count
}

// inliner splices one round's candidates into their callers.
type inliner struct {
	candidates map[string]*ir.Func
	vmap       []ir.VReg // scratch: callee vreg -> caller vreg
}

// target returns the candidate that the instruction in of caller f calls,
// or nil.
func (il *inliner) target(f *ir.Func, in *ir.Instr) *ir.Func {
	if in.Kind != ir.KCall {
		return nil
	}
	if g, ok := il.candidates[in.Sym]; ok && g.Name != f.Name {
		return g
	}
	return nil
}

// block splices every candidate call in blk and returns how many it
// spliced. A block without one is left as it is; a block with one is
// rebuilt once, into an array of exactly its new length.
func (il *inliner) block(f *ir.Func, blk *ir.Block) int {
	size, calls := 0, 0
	for ii := range blk.Instrs {
		if g := il.target(f, &blk.Instrs[ii]); g != nil {
			size += splicedLen(g, &blk.Instrs[ii])
			calls++
		} else {
			size++
		}
	}
	if calls == 0 {
		return 0
	}
	out := make([]ir.Instr, 0, size)
	for ii := range blk.Instrs {
		in := &blk.Instrs[ii]
		if g := il.target(f, in); g != nil {
			out = il.splice(out, f, g, in)
		} else {
			out = append(out, *in)
		}
	}
	blk.Instrs = out
	return calls
}

// splicedLen is the number of instructions splice emits for call.
func splicedLen(callee *ir.Func, call *ir.Instr) int {
	n := len(callee.Params)
	body := callee.Blocks[0].Instrs
	for i := range body {
		if body[i].Kind == ir.KRet {
			if call.Dst != ir.NoV && body[i].A != ir.NoV {
				n++
			}
			break
		}
		n++
	}
	return n
}

// splice appends to out the inlined body of callee for the call instruction
// call, allocating fresh vregs in caller and binding parameters to
// arguments.
func (il *inliner) splice(out []ir.Instr, caller, callee *ir.Func, call *ir.Instr) []ir.Instr {
	vmap := il.vmap[:0]
	for v := 0; v < callee.NumVRegs(); v++ {
		vmap = append(vmap, caller.NewVReg(callee.TypeOf(ir.VReg(v))))
	}
	il.vmap = vmap
	// Bind parameters.
	for i := range callee.Params {
		out = append(out, ir.Instr{
			Kind: ir.KMov, Dst: vmap[i], A: call.Args[i], B: ir.NoV, C: ir.NoV,
		})
	}
	remap := func(v ir.VReg) ir.VReg {
		if v == ir.NoV {
			return ir.NoV
		}
		return vmap[v]
	}
	body := callee.Blocks[0].Instrs
	for i := range body {
		src := &body[i]
		if src.Kind == ir.KRet {
			if call.Dst != ir.NoV && src.A != ir.NoV {
				out = append(out, ir.Instr{
					Kind: ir.KMov, Dst: call.Dst, A: remap(src.A), B: ir.NoV, C: ir.NoV,
				})
			}
			break // single return terminates the body
		}
		dup := *src
		dup.Dst = remap(src.Dst)
		dup.A = remap(src.A)
		dup.B = remap(src.B)
		dup.C = remap(src.C)
		if len(src.Args) > 0 {
			dup.Args = make([]ir.VReg, len(src.Args))
			for j, a := range src.Args {
				dup.Args[j] = remap(a)
			}
		}
		out = append(out, dup)
	}
	return out
}
