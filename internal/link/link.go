// Package link lays out compiled per-ISA code and globals into a multi-ISA
// binary image. In aligned mode — the paper's contribution — every symbol
// (function entry, global datum) receives the identical virtual address on
// every ISA, with function regions padded to the largest per-ISA encoding,
// so that the OS can alias per-ISA .text at the same addresses and all
// pointers remain valid across migration. Unaligned mode lays each ISA out
// naturally and is the Table 1 baseline.
package link

import (
	"cmp"
	"fmt"
	"slices"

	"heterodc/internal/compiler"
	"heterodc/internal/ir"
	"heterodc/internal/isa"
	"heterodc/internal/mem"
	"heterodc/internal/stackmap"
	"heterodc/internal/sys"
)

// Func is one function's code placed at its final address for one ISA.
type Func struct {
	Name string
	Arch isa.Arch
	Base uint64
	Size uint64
	Code []isa.Instr
	// Addr[i] is the virtual address of Code[i].
	Addr []uint64
	// Info is the per-ISA stackmap/unwind metadata with addresses resolved.
	Info *stackmap.FuncInfo

	// callAt lists, ascending, the indices in Code of the OpCall
	// instructions, and callee[i] is the function callAt[i] targets (nil for
	// an undefined symbol) — resolved once when the program is sealed, so
	// that executing a call hashes no symbol name. A side table, and a
	// sparse one: Code stays exactly as compiled, and an image costs a few
	// bytes per call rather than per instruction.
	callAt []int32
	callee []*Func
}

// Callee returns the function that the OpCall at Code[idx] targets, or nil
// when its symbol is undefined.
func (f *Func) Callee(idx int) *Func {
	if i, ok := slices.BinarySearch(f.callAt, int32(idx)); ok {
		return f.callee[i]
	}
	return nil
}

// IndexOf returns the instruction index at address pc (which must be an
// instruction boundary inside the function).
func (f *Func) IndexOf(pc uint64) (int, error) {
	if i, ok := slices.BinarySearch(f.Addr, pc); ok {
		return i, nil
	}
	return 0, fmt.Errorf("link: pc %#x is not an instruction boundary in %s", pc, f.Name)
}

// Program is one ISA's executable view of the image.
type Program struct {
	Arch   isa.Arch
	Funcs  []*Func
	ByName map[string]*Func
	SMap   *stackmap.Map
	// MigrateCheck is the entry address of __migrate_check, or zero when
	// the image has no migration points. A core reads it at every dispatch,
	// so it is resolved once here rather than by name there.
	MigrateCheck uint64

	// bases[i] is the entry address of byAddr[i], ascending.
	bases  []uint64
	byAddr []*Func
	byBase map[uint64]*Func
}

// FuncAt returns the function containing pc, or nil.
func (p *Program) FuncAt(pc uint64) *Func {
	i, entry := slices.BinarySearch(p.bases, pc)
	if !entry {
		i-- // the last function starting below pc
	}
	if i < 0 {
		return nil
	}
	f := p.byAddr[i]
	if pc >= f.Base+f.Size {
		return nil
	}
	return f
}

// FuncEntry returns the function whose entry address is addr, or nil (used
// by indirect calls, which may only target function entries).
func (p *Program) FuncEntry(addr uint64) *Func { return p.byBase[addr] }

func (p *Program) seal() {
	p.byBase = make(map[uint64]*Func, len(p.Funcs))
	for _, f := range p.Funcs {
		p.byBase[f.Base] = f
	}
	p.byAddr = slices.Clone(p.Funcs)
	slices.SortFunc(p.byAddr, func(a, b *Func) int { return cmp.Compare(a.Base, b.Base) })
	p.bases = make([]uint64, len(p.byAddr))
	for i, f := range p.byAddr {
		p.bases[i] = f.Base
	}
	if f := p.ByName[compiler.MigrateCheckFunc]; f != nil {
		p.MigrateCheck = f.Base
	}
	// One backing array each for the whole program's call sites.
	calls := 0
	for _, f := range p.Funcs {
		for i := range f.Code {
			if f.Code[i].Op == isa.OpCall {
				calls++
			}
		}
	}
	callAt, callee := make([]int32, 0, calls), make([]*Func, 0, calls)
	for _, f := range p.Funcs {
		first := len(callAt)
		for i := range f.Code {
			if f.Code[i].Op == isa.OpCall {
				callAt = append(callAt, int32(i))
				callee = append(callee, p.ByName[f.Code[i].Sym])
			}
		}
		f.callAt, f.callee = callAt[first:len(callAt):len(callAt)], callee[first:len(callee):len(callee)]
	}
	p.SMap.Seal()
}

// Segment is one global's data range, which the loader must install. An
// image's segments are in ascending address order; a zero-size global
// may share its address with the next one, so the name says whose it is.
type Segment struct {
	Name  string // the global's symbol
	Addr  uint64
	Bytes []byte
	Size  int64 // total size including zero fill (>= len(Bytes))
}

// Image is the multi-ISA binary: per-ISA programs plus the (per-ISA or
// common) data layout. It holds only what the loader, the cores and the
// migration machinery read — code, addresses, stackmaps and data — and not
// the IR it was compiled from, which Link lets go of when it returns.
type Image struct {
	Name    string
	Aligned bool

	Progs [isa.NumArch]*Program

	// GlobalAddr[arch] maps symbol -> address. In aligned mode the maps are
	// identical for every arch.
	GlobalAddr [isa.NumArch]map[string]uint64
	// FuncAddr[arch] maps function name -> entry address.
	FuncAddr [isa.NumArch]map[string]uint64
	// Data[arch] lists initialised segments.
	Data [isa.NumArch][]Segment

	// TextEnd / DataEnd record the highest used addresses (max across ISAs).
	TextEnd uint64
	DataEnd uint64

	// DirectMigrate reports that the program can issue a migrate syscall
	// outside the scheduler's vDSO handshake: some function other than the
	// prelude wrapper and the __migrate_check shim traps SysMigrate, calls
	// the wrapper, or takes its address (so an indirect call or spawn could
	// reach it). The parallel engine gives such processes a whole-cluster
	// sharing footprint — a self-directed migrate may target any node at any
	// quantum, and refusing one mid-window would diverge from the sequential
	// order. Scheduler-driven workloads (RequestMigration + vDSO flag) never
	// set this and keep their sharing groups narrow.
	DirectMigrate bool
}

// Options configures linking.
type Options struct {
	// Aligned enables the common address-space layout (required for
	// migration). Unaligned is the Table 1 baseline.
	Aligned bool
}

// LinkError describes a linking failure.
type LinkError struct{ msg string }

func (e *LinkError) Error() string { return "link: " + e.msg }

// Link lays out art into an Image. The image takes ownership of art: the
// image's code is art's code with symbols resolved in place, and its
// stackmaps are art's metadata with addresses filled in. So an artifact
// links once; linking it again is a LinkError, which leaves the first image
// as it was.
func Link(name string, art *compiler.Artifact, opts Options) (*Image, error) {
	if !art.Claim() {
		return nil, &LinkError{msg: fmt.Sprintf("%s: artifact already linked (compile the module again for a second image)", name)}
	}
	img := &Image{Name: name, Aligned: opts.Aligned, DirectMigrate: scanDirectMigrate(art.Module)}

	nFuncs := len(art.Funcs[isa.X86])
	if nFuncs != len(art.Funcs[isa.ARM64]) {
		return nil, &LinkError{msg: "per-ISA function counts differ"}
	}

	// --- Text layout ---
	if opts.Aligned {
		// Common layout: function i occupies [base, base+maxSize) on every
		// ISA; the per-ISA encodings are padded to the max ("aligning
		// function symbols requires adding padding so that function sizes
		// are equivalent across binaries").
		cur := mem.TextBase
		for a := range img.FuncAddr {
			img.FuncAddr[a] = make(map[string]uint64, nFuncs)
		}
		for i := 0; i < nFuncs; i++ {
			cur = mem.AlignUp(cur, 16)
			var max int64
			for _, arch := range isa.Arches {
				if s := art.Funcs[arch][i].Size; s > max {
					max = s
				}
			}
			for _, arch := range isa.Arches {
				img.FuncAddr[arch][art.Funcs[arch][i].Name] = cur
			}
			cur += uint64(max)
		}
		img.TextEnd = cur
	} else {
		// Natural per-ISA layout: no padding, addresses differ across ISAs.
		for _, arch := range isa.Arches {
			cur := mem.TextBase
			img.FuncAddr[arch] = make(map[string]uint64, nFuncs)
			for i := 0; i < nFuncs; i++ {
				cur = mem.AlignUp(cur, 16)
				img.FuncAddr[arch][art.Funcs[arch][i].Name] = cur
				cur += uint64(art.Funcs[arch][i].Size)
			}
			if cur > img.TextEnd {
				img.TextEnd = cur
			}
		}
	}

	// --- Data layout ---
	for _, arch := range isa.Arches {
		cur := mem.DataBase
		img.GlobalAddr[arch] = make(map[string]uint64, len(art.Module.Globals))
		img.Data[arch] = make([]Segment, 0, len(art.Module.Globals))
		for _, g := range art.Module.Globals {
			align := uint64(g.Align)
			if align == 0 {
				align = 8
			}
			if opts.Aligned {
				// Common layout uses a conservative 16-byte alignment for
				// every symbol (the alignment tool's policy).
				if align < 16 {
					align = 16
				}
			}
			cur = mem.AlignUp(cur, align)
			img.GlobalAddr[arch][g.Name] = cur
			img.Data[arch] = append(img.Data[arch], Segment{Name: g.Name, Addr: cur, Bytes: g.Init, Size: g.Size})
			cur += uint64(g.Size)
		}
		if cur > img.DataEnd {
			img.DataEnd = cur
		}
	}
	if opts.Aligned {
		// Sanity: the maps must agree.
		for name, a := range img.GlobalAddr[isa.X86] {
			if b := img.GlobalAddr[isa.ARM64][name]; a != b {
				return nil, &LinkError{msg: fmt.Sprintf("aligned global %s differs: %#x vs %#x", name, a, b)}
			}
		}
	}

	// --- Resolve and build programs ---
	for _, arch := range isa.Arches {
		prog, err := img.program(arch, art.Funcs[arch])
		if err != nil {
			return nil, err
		}
		prog.seal()
		img.Progs[arch] = prog
	}
	return img, nil
}

// program places arch's lowered functions at their addresses. One array
// each holds every function's record and every instruction's address; each
// function keeps its lowered code, resolved and flagged in place.
func (img *Image) program(arch isa.Arch, afs []*compiler.AsmFunc) (*Program, error) {
	prog := &Program{
		Arch:   arch,
		Funcs:  make([]*Func, len(afs)),
		ByName: make(map[string]*Func, len(afs)),
		SMap:   stackmap.NewMap(arch),
	}
	total := 0
	for _, af := range afs {
		total += len(af.Code)
	}
	funcs := make([]Func, len(afs))
	addrs := make([]uint64, total)
	for i, af := range afs {
		base := img.FuncAddr[arch][af.Name]
		n := len(af.Code)
		lf := &funcs[i]
		*lf = Func{
			Name: af.Name,
			Arch: arch,
			Base: base,
			Size: uint64(af.Size),
			Code: af.Code,
			Addr: addrs[:n:n],
			Info: af.Info,
		}
		addrs = addrs[n:]
		// Fill metadata addresses: every call-like instruction carries its
		// site's ID, and the site resumes at the next instruction.
		af.Info.Entry = base
		af.Info.Size = uint64(af.Size)
		pc, sites := base, 0
		for j := range lf.Code {
			in := &lf.Code[j]
			lf.Addr[j] = pc
			in.SameLine = j > 0 && in.Size > 0 && (pc-1)>>isa.LineShift == (pc+uint64(in.Size)-1)>>isa.LineShift
			pc += uint64(in.Size)
			if in.Op == isa.OpLea {
				addr, err := img.resolve(arch, in.Sym)
				if err != nil {
					return nil, err
				}
				in.Imm += int64(addr)
			}
			if in.CallSiteID != 0 {
				if cs := af.Info.CallSites[int(in.CallSiteID)]; cs != nil {
					cs.RetPC = pc
					sites++
				}
			}
		}
		if sites != len(af.Info.CallSites) {
			return nil, &LinkError{msg: fmt.Sprintf("%s: call site %d has no instruction", af.Name, missingSite(af.Info))}
		}
		prog.Funcs[i] = lf
		prog.ByName[lf.Name] = lf
		prog.SMap.Add(af.Info)
	}
	return prog, nil
}

// missingSite returns the lowest ID among fi's call sites that no
// instruction resumes at.
func missingSite(fi *stackmap.FuncInfo) int {
	id := -1
	for _, cs := range fi.CallSites {
		if cs.RetPC == 0 && (id < 0 || cs.ID < id) {
			id = cs.ID
		}
	}
	return id
}

// scanDirectMigrate detects whether m can issue a migrate syscall outside
// the vDSO handshake. The runtime's __migrate_check shim traps SysMigrate
// inline (never through the prelude wrapper), so its occurrence there is the
// one sanctioned site; anywhere else — a user function that inlined the
// wrapper, a direct call to it, or its address escaping into an indirect
// call or spawn — means the program itself decides when and where to
// migrate. Syscall numbers are literal at the IR level (__syscall requires
// a constant), so the scan is exact, not a heuristic.
func scanDirectMigrate(m *ir.Module) bool {
	for _, f := range m.Funcs {
		self := f.Name == "migrate" || f.Name == "__migrate_check"
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch in.Kind {
				case ir.KSyscall:
					if in.Imm == sys.SysMigrate && !self {
						return true
					}
				case ir.KCall:
					if in.Sym == "migrate" {
						return true
					}
				case ir.KGlobalAddr:
					if in.Sym == "migrate" {
						return true
					}
				}
			}
		}
	}
	return false
}

func (img *Image) resolve(arch isa.Arch, sym string) (uint64, error) {
	if a, ok := img.GlobalAddr[arch][sym]; ok {
		return a, nil
	}
	if a, ok := img.FuncAddr[arch][sym]; ok {
		return a, nil
	}
	return 0, &LinkError{msg: fmt.Sprintf("undefined symbol %q", sym)}
}

// Prog returns the program view for arch.
func (img *Image) Prog(arch isa.Arch) *Program { return img.Progs[arch] }

// EntryAddr returns the address of the process entry point on arch.
func (img *Image) EntryAddr(arch isa.Arch) uint64 {
	return img.FuncAddr[arch][compiler.StartFunc]
}
