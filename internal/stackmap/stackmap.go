// Package stackmap defines the compiler-generated metadata that the
// stack-transformation runtime consumes: per-call-site live-value locations
// and per-function frame-unwinding descriptions. It corresponds to the
// paper's LLVM stackmap records plus DWARF frame-unwinding information.
//
// The cross-ISA correlation key is the IR: call sites are identified by the
// IR call-site ID (identical in every backend) and live values by their IR
// virtual-register number (the live sets are computed once, on the IR,
// before per-ISA lowering diverges).
package stackmap

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"heterodc/internal/ir"
	"heterodc/internal/isa"
)

// LocKind says where a live value resides at a call site.
type LocKind int

const (
	// InReg: the value is in a callee-saved register. The runtime must find
	// where (or whether) that register was saved by walking down the call
	// chain, exactly as the paper describes.
	InReg LocKind = iota
	// InFrame: the value is in a frame slot at Off bytes from the frame
	// pointer (Off is negative; slots sit below the FP).
	InFrame
)

// Loc is one location.
type Loc struct {
	Kind    LocKind
	Reg     isa.Reg // valid when Kind == InReg
	IsFloat bool    // float register file / float slot
	Off     int64   // FP-relative offset when Kind == InFrame
}

// String renders the location for hdcinspect listings.
func (l Loc) String() string {
	if l.Kind == InReg {
		file := "i"
		if l.IsFloat {
			file = "f"
		}
		return fmt.Sprintf("%sreg:%d", file, int(l.Reg))
	}
	return fmt.Sprintf("fp%+d", l.Off)
}

// LiveValue is one live IR value at a call site with its per-ISA location.
type LiveValue struct {
	VReg int     // IR virtual register (cross-ISA key)
	Type ir.Type // Ptr values get stack-pointer fixup during migration
	Loc  Loc
}

// CallSite describes one call-like instruction.
type CallSite struct {
	// ID is the IR call-site ID, identical across ISAs.
	ID int
	// RetPC is the address of the instruction that executes when the callee
	// returns (the resume point after migration).
	RetPC uint64
	// Live lists the values live across this call, sorted by VReg: the
	// compiler emits them so and Map.Seal enforces it, which lets the
	// transformer pair two ISAs' lists with one merge pass.
	Live []LiveValue
}

// SavedReg records where the prologue saved one callee-saved register.
type SavedReg struct {
	Reg     isa.Reg
	IsFloat bool
	Off     int64 // FP-relative, negative
}

// FuncInfo is the per-function, per-ISA frame description (the DWARF-like
// unwind metadata). Both simulated ABIs maintain a frame-pointer chain with
// the invariant [FP] = caller's FP and [FP+8] = return address, so walking
// is uniform; everything else (frame size, save slots, alloca offsets,
// stack-argument positions) is per-ISA.
type FuncInfo struct {
	Name string
	// Entry and Size delimit the function's code on this ISA.
	Entry uint64
	Size  uint64
	// FrameSize is the byte distance from FP down to SP in the function's
	// steady state (after the prologue).
	FrameSize int64
	// Saves lists callee-saved register save slots, in prologue order.
	Saves []SavedReg
	// AllocaOffsets[i] is the FP-relative offset of IR alloca slot i.
	AllocaOffsets []int64
	// AllocaSizes[i] is the byte size of slot i (same on all ISAs).
	AllocaSizes []int64
	// AllocaPtr[i] marks slots that may hold pointer values; only these
	// get content pointer fixup during stack transformation.
	AllocaPtr []bool
	// StackParams maps IR parameter index -> FP-relative offset for
	// parameters passed on the stack (absent when passed in registers).
	StackParams map[int]int64
	// NumStackArgBytes is the outgoing stack-argument area size.
	NumStackArgBytes int64
	// CallSites, keyed by call-site ID.
	CallSites map[int]*CallSite
	// IsEntry marks functions that begin a thread (the unwinder stops when
	// it reaches one, signalled by a zero return address).
	IsEntry bool
	// NoMigrate marks runtime/library functions inside which migration is
	// not permitted (the paper's "cannot migrate during library code").
	NoMigrate bool
}

// SiteByRetPC finds the call site whose RetPC equals pc, or nil.
func (fi *FuncInfo) SiteByRetPC(pc uint64) *CallSite {
	for _, cs := range fi.CallSites {
		if cs.RetPC == pc {
			return cs
		}
	}
	return nil
}

// SaveOffset returns the FP-relative save slot of callee-saved register reg,
// or (0, false) if this function does not save it.
func (fi *FuncInfo) SaveOffset(reg isa.Reg, isFloat bool) (int64, bool) {
	for _, s := range fi.Saves {
		if s.Reg == reg && s.IsFloat == isFloat {
			return s.Off, true
		}
	}
	return 0, false
}

// Map is the full per-ISA metadata for one linked image.
type Map struct {
	Arch  isa.Arch
	Funcs map[string]*FuncInfo

	sortedEntries []uint64
	entryToFunc   map[uint64]*FuncInfo
}

// NewMap builds an empty metadata map for arch.
func NewMap(arch isa.Arch) *Map {
	return &Map{Arch: arch, Funcs: make(map[string]*FuncInfo)}
}

// Add registers fi.
func (m *Map) Add(fi *FuncInfo) { m.Funcs[fi.Name] = fi }

// Seal builds the PC lookup structures and puts every call site's live set
// in VReg order (a no-op on compiler output); call after all Add calls.
func (m *Map) Seal() {
	m.entryToFunc = make(map[uint64]*FuncInfo, len(m.Funcs))
	m.sortedEntries = make([]uint64, 0, len(m.Funcs))
	for _, fi := range m.Funcs {
		m.entryToFunc[fi.Entry] = fi
		m.sortedEntries = append(m.sortedEntries, fi.Entry)
		for _, cs := range fi.CallSites {
			slices.SortStableFunc(cs.Live, func(a, b LiveValue) int { return cmp.Compare(a.VReg, b.VReg) })
		}
	}
	slices.Sort(m.sortedEntries)
}

// FuncAt returns the function containing pc, or nil.
func (m *Map) FuncAt(pc uint64) *FuncInfo {
	i := sort.Search(len(m.sortedEntries), func(i int) bool {
		return m.sortedEntries[i] > pc
	})
	if i == 0 {
		return nil
	}
	fi := m.entryToFunc[m.sortedEntries[i-1]]
	if pc >= fi.Entry+fi.Size {
		return nil
	}
	return fi
}

// SiteFor returns the function and call site for a return address, or an
// error naming what was missing (the runtime treats this as a fatal
// metadata defect, as the paper's runtime would).
func (m *Map) SiteFor(retPC uint64) (*FuncInfo, *CallSite, error) {
	fi := m.FuncAt(retPC)
	if fi == nil {
		return nil, nil, fmt.Errorf("stackmap: no function contains pc %#x", retPC)
	}
	cs := fi.SiteByRetPC(retPC)
	if cs == nil {
		return nil, nil, fmt.Errorf("stackmap: %s has no call site returning to %#x", fi.Name, retPC)
	}
	return fi, cs, nil
}
