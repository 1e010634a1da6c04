// Package xform implements the paper's stack-transformation runtime: at a
// migration point it rewrites a thread's user-space stack, frame by frame in
// a single pass, from the source ISA's ABI to the destination ISA's ABI,
// using compiler-generated stackmaps and unwind metadata.
//
// The two-halves scheme is implemented exactly as described: the thread's
// stack window is split in half, the rewritten stack is built in the other
// half, and the register state (PC, SP, FP) is mapped so execution resumes
// on the destination architecture at the migration point's return address.
package xform

import (
	"fmt"
	"math"

	"heterodc/internal/ir"
	"heterodc/internal/isa"
	"heterodc/internal/link"
	"heterodc/internal/stackmap"
)

// MemIO abstracts memory for the transformer. The kernel supplies an
// implementation that resolves DSM faults synchronously (pulling remote
// pages and accounting their latency).
type MemIO interface {
	ReadU64(addr uint64) (uint64, error)
	WriteU64(addr uint64, v uint64) error
}

// RegState is an architecture-neutral register file snapshot.
type RegState struct {
	I [32]int64
	F [32]float64
}

// Input describes the suspended source-side thread at the migration point
// (inside __migrate_check, immediately after the migration syscall trapped).
type Input struct {
	SrcProg *link.Program
	DstProg *link.Program
	Mem     MemIO

	// Regs is the live source register file.
	Regs RegState
	// PC is the current source program counter (inside __migrate_check).
	PC uint64

	// SrcStackLo/Hi bound the currently active stack half; DstStackLo/Hi
	// bound the half the rewritten stack is built in.
	SrcStackLo, SrcStackHi uint64
	DstStackLo, DstStackHi uint64
}

// Output is the destination-side resume state.
type Output struct {
	Regs RegState
	PC   uint64

	Stats Stats
}

// Stats quantifies the work done, for the latency model behind Figure 10.
type Stats struct {
	Frames      int
	LiveValues  int
	AllocaBytes int64
	PtrFixups   int
	RegWalks    int // register values placed via the callee-save-chain walk
}

// srcFrame is one unwound source frame.
type srcFrame struct {
	fn   *stackmap.FuncInfo // source-ISA metadata
	site *stackmap.CallSite // source call site the frame is suspended at
	fp   uint64             // source frame pointer
	// savesEnd bounds the frame's slice of Transformer.saves: applying
	// saves[:savesEnd] to the live register file gives the registers as this
	// frame observes them (all deeper frames' callee-saved saves applied).
	savesEnd int
}

// savedReg is one callee-saved register value the unwinder read back from a
// save slot.
type savedReg struct {
	reg     isa.Reg
	isFloat bool
	bits    uint64
}

// dstFrame is one frame placed in the destination half.
type dstFrame struct {
	fn *stackmap.FuncInfo
	fp uint64
	sp uint64
}

// region maps one source alloca slot to its destination address, for
// stack-internal pointer fixup.
type region struct {
	srcLo, srcHi uint64
	dstLo        uint64
}

// Transformer runs stack transformations and keeps its working storage —
// the frame lists, the alloca region table, the saved-register log and the
// Output — between calls, so a kernel that migrates threads all day
// allocates nothing per migration once the slices have grown to its deepest
// stack. It is not safe for concurrent use; the zero value is ready.
type Transformer struct {
	in      *Input
	frames  []srcFrame
	dsts    []dstFrame
	regions []region
	// saves logs, innermost frame first, every register the unwinder
	// recovered; a frame's view of the register file is in.Regs with a prefix
	// of the log applied, which costs 16 bytes per save where a snapshot per
	// frame cost a 512-byte register file.
	saves []savedReg
	out   Output
}

// Transform rewrites the stack and maps the register state with a
// throwaway Transformer.
func Transform(in *Input) (*Output, error) { return new(Transformer).Transform(in) }

// Transform rewrites the stack and maps the register state. It returns the
// destination resume state, which the Transformer owns and overwrites on its
// next call, or an error if metadata is missing or inconsistent (a fatal
// toolchain defect).
func (t *Transformer) Transform(in *Input) (*Output, error) {
	t.in = in
	defer func() { t.in = nil }()
	srcDesc := isa.Describe(in.SrcProg.Arch)
	dstDesc := isa.Describe(in.DstProg.Arch)
	t.out = Output{}
	out := &t.out

	// ---- Pass 1: unwind the source stack. ----
	if err := t.unwind(srcDesc); err != nil {
		return nil, err
	}
	frames := t.frames
	if len(frames) == 0 {
		return nil, fmt.Errorf("xform: no application frames to transform")
	}
	out.Stats.Frames = len(frames)

	// ---- Pass 2: lay out destination frames (outermost first). ----
	if cap(t.dsts) < len(frames) {
		t.dsts = make([]dstFrame, len(frames), cap(t.frames))
	}
	dsts := t.dsts[:len(frames)]
	t.dsts = dsts
	sp := (in.DstStackHi - 64) &^ 15
	for k := len(frames) - 1; k >= 0; k-- {
		name := frames[k].fn.Name
		dfn, ok := in.DstProg.SMap.Funcs[name]
		if !ok {
			return nil, fmt.Errorf("xform: destination has no metadata for %s", name)
		}
		// The alloca passes below index both frames by the source's slots.
		if n := len(frames[k].fn.AllocaOffsets); len(dfn.AllocaOffsets) != n || len(frames[k].fn.AllocaSizes) != n {
			return nil, fmt.Errorf("xform: %s: %d alloca slots on %s, %d on %s",
				name, n, in.SrcProg.Arch, len(dfn.AllocaOffsets), in.DstProg.Arch)
		}
		fp := sp - 16
		dsts[k] = dstFrame{fn: dfn, fp: fp, sp: fp - uint64(dfn.FrameSize)}
		sp = dsts[k].sp
		if sp <= in.DstStackLo {
			return nil, fmt.Errorf("xform: destination stack overflow (%d frames)", len(frames))
		}
	}

	// Alloca region table for pointer fixup (addresses of address-taken
	// locals move between ABIs; pointers into them must be rebased).
	t.regions = t.regions[:0]
	for k, f := range frames {
		for i := range f.fn.AllocaOffsets {
			srcLo := f.fp + uint64(f.fn.AllocaOffsets[i])
			dstLo := dsts[k].fp + uint64(dsts[k].fn.AllocaOffsets[i])
			t.regions = append(t.regions, region{
				srcLo: srcLo,
				srcHi: srcLo + uint64(f.fn.AllocaSizes[i]),
				dstLo: dstLo,
			})
		}
	}

	// ---- Pass 3: write frame records and copy state. ----
	// Frame-chain records: [FP] = caller FP, [FP+8] = return address into
	// the caller's destination code.
	for k := range frames {
		var callerFP, retAddr uint64
		if k == len(frames)-1 {
			callerFP, retAddr = 0, 0 // entry shim: unwinder sentinel
		} else {
			callerFP = dsts[k+1].fp
			callerSite := dsts[k+1].fn.Site(frames[k+1].site.ID)
			if callerSite == nil {
				return nil, fmt.Errorf("xform: %s: destination missing call site %d",
					frames[k+1].fn.Name, frames[k+1].site.ID)
			}
			retAddr = callerSite.RetPC
		}
		if err := in.Mem.WriteU64(dsts[k].fp, callerFP); err != nil {
			return nil, err
		}
		if err := in.Mem.WriteU64(dsts[k].fp+8, retAddr); err != nil {
			return nil, err
		}
	}

	// Copy alloca contents. Word-granular pointer fixup applies only to
	// slots the compiler marked pointer-bearing: in a plain data slot (a
	// char buffer, an int array) a word that merely looks like a stack
	// address must be copied verbatim, or the rebase rewrites application
	// bytes. The region table above still covers every slot, because typed
	// live pointers may point into non-pointer-bearing slots.
	for k, f := range frames {
		for i := range f.fn.AllocaOffsets {
			src := f.fp + uint64(f.fn.AllocaOffsets[i])
			dst := dsts[k].fp + uint64(dsts[k].fn.AllocaOffsets[i])
			size := f.fn.AllocaSizes[i]
			mayHoldPtr := i < len(f.fn.AllocaPtr) && f.fn.AllocaPtr[i]
			out.Stats.AllocaBytes += size
			for o := int64(0); o < size; o += 8 {
				w, err := in.Mem.ReadU64(src + uint64(o))
				if err != nil {
					return nil, err
				}
				if mayHoldPtr {
					if nw, fixed := t.fixup(w); fixed {
						w = nw
						out.Stats.PtrFixups++
					}
				}
				if err := in.Mem.WriteU64(dst+uint64(o), w); err != nil {
					return nil, err
				}
			}
		}
	}

	// Live values: read from source locations, write to destination
	// locations. regs replays the unwinder's log as the loop moves outward,
	// so at frame k it is the register file as that frame observes it.
	regs, applied := in.Regs, 0
	for k, f := range frames {
		for ; applied < f.savesEnd; applied++ {
			if s := t.saves[applied]; s.isFloat {
				regs.F[s.reg] = f64frombits(s.bits)
			} else {
				regs.I[s.reg] = int64(s.bits)
			}
		}
		dsite := dsts[k].fn.Site(f.site.ID)
		if dsite == nil {
			return nil, fmt.Errorf("xform: %s: destination missing call site %d", f.fn.Name, f.site.ID)
		}
		// Both live sets are sorted by VReg (Map.Seal sees to it), so one
		// cursor over the destination's finds each source value's home.
		dlive := dsite.Live
		for _, lv := range f.site.Live {
			for len(dlive) > 0 && dlive[0].VReg < lv.VReg {
				dlive = dlive[1:]
			}
			if len(dlive) == 0 || dlive[0].VReg != lv.VReg {
				// Live on source but not destination: the IR-level live set
				// is shared, so this is a metadata defect.
				return nil, fmt.Errorf("xform: %s site %d: v%d live on %s but not %s",
					f.fn.Name, f.site.ID, lv.VReg, in.SrcProg.Arch, in.DstProg.Arch)
			}
			dl := dlive[0].Loc
			out.Stats.LiveValues++

			// Fetch the source value.
			var vi int64
			var vf float64
			if lv.Loc.Kind == stackmap.InReg {
				if lv.Loc.IsFloat {
					vf = regs.F[lv.Loc.Reg]
				} else {
					vi = regs.I[lv.Loc.Reg]
				}
			} else {
				w, err := in.Mem.ReadU64(f.fp + uint64(lv.Loc.Off))
				if err != nil {
					return nil, err
				}
				if lv.Loc.IsFloat {
					vf = f64frombits(w)
				} else {
					vi = int64(w)
				}
			}
			// Pointer fixup for stack-internal pointers.
			if lv.Type == ir.Ptr && !lv.Loc.IsFloat {
				if nv, fixed := t.fixup(uint64(vi)); fixed {
					vi = int64(nv)
					out.Stats.PtrFixups++
				}
			}
			// Place at the destination.
			if dl.Kind == stackmap.InReg {
				if err := t.placeReg(k, dl.Reg, dl.IsFloat, vi, vf); err != nil {
					return nil, err
				}
			} else {
				bits := uint64(vi)
				if dl.IsFloat {
					bits = f64bits(vf)
				}
				if err := in.Mem.WriteU64(dsts[k].fp+uint64(dl.Off), bits); err != nil {
					return nil, err
				}
			}
		}
	}

	// ---- Resume state: map PC, SP, FP (the paper's r^AB function). ----
	site0 := dsts[0].fn.Site(frames[0].site.ID)
	if site0 == nil {
		return nil, fmt.Errorf("xform: innermost destination site missing")
	}
	out.Regs.I[dstDesc.SP] = int64(dsts[0].sp)
	out.Regs.I[dstDesc.FP] = int64(dsts[0].fp)
	if dstDesc.LR != isa.NoReg {
		out.Regs.I[dstDesc.LR] = int64(site0.RetPC)
	}
	out.PC = site0.RetPC
	return out, nil
}

// fixup rebases v if it points into a live source alloca slot.
func (t *Transformer) fixup(v uint64) (uint64, bool) {
	if v < t.in.SrcStackLo || v >= t.in.SrcStackHi {
		return v, false
	}
	for _, r := range t.regions {
		if v >= r.srcLo && v < r.srcHi {
			return r.dstLo + (v - r.srcLo), true
		}
	}
	// Value looks like a stack address but maps to no live alloca: treat
	// it as an integer that happens to collide (the paper's runtime has
	// the same ambiguity); leave unchanged.
	return v, false
}

// placeReg puts frame k's register-resident destination value either
// directly into the destination register file (innermost frame, or
// registers untouched by inner frames) or into the save slot of the nearest
// inner frame that saves the register — the paper's walk down the call
// chain.
func (t *Transformer) placeReg(k int, reg isa.Reg, isFloat bool, vi int64, vf float64) error {
	for j := k - 1; j >= 0; j-- {
		if off, ok := t.dsts[j].fn.SaveOffset(reg, isFloat); ok {
			t.out.Stats.RegWalks++
			bits := uint64(vi)
			if isFloat {
				bits = f64bits(vf)
			}
			return t.in.Mem.WriteU64(t.dsts[j].fp+uint64(off), bits)
		}
	}
	if isFloat {
		t.out.Regs.F[reg] = vf
	} else {
		t.out.Regs.I[reg] = vi
	}
	return nil
}

// unwind walks the source stack from inside __migrate_check outward into
// t.frames, logging the callee-saved registers each frame restores.
func (t *Transformer) unwind(srcDesc *isa.Desc) error {
	in := t.in
	t.frames, t.saves = t.frames[:0], t.saves[:0]
	cur := in.PC
	curFn := in.SrcProg.SMap.FuncAt(cur)
	if curFn == nil {
		return fmt.Errorf("xform: pc %#x not in any function", cur)
	}
	curFP := uint64(in.Regs.I[srcDesc.FP])

	for depth := 0; ; depth++ {
		if depth > 1024 {
			return fmt.Errorf("xform: unwind depth exceeded (corrupt frame chain?)")
		}
		// Recover the caller's view of callee-saved registers.
		for _, s := range curFn.Saves {
			w, err := in.Mem.ReadU64(curFP + uint64(s.Off))
			if err != nil {
				return err
			}
			t.saves = append(t.saves, savedReg{reg: s.Reg, isFloat: s.IsFloat, bits: w})
		}
		retAddr, err := in.Mem.ReadU64(curFP + 8)
		if err != nil {
			return err
		}
		callerFP, err := in.Mem.ReadU64(curFP)
		if err != nil {
			return err
		}
		if retAddr == 0 {
			// curFn is the entry shim; it was appended on the previous
			// iteration (or the chain is broken).
			return nil
		}
		callerFn, site, err := in.SrcProg.SMap.SiteFor(retAddr)
		if err != nil {
			return err
		}
		// Entry shims are included as frames; their own caller record is the
		// zero sentinel, so the next iteration exits via retAddr == 0.
		t.frames = append(t.frames, srcFrame{fn: callerFn, site: site, fp: callerFP, savesEnd: len(t.saves)})
		curFn, curFP = callerFn, callerFP
	}
}

func f64bits(f float64) uint64 { return math.Float64bits(f) }

func f64frombits(b uint64) float64 { return math.Float64frombits(b) }
