package compiler

import (
	"fmt"
	"slices"

	"heterodc/internal/ir"
	"heterodc/internal/mem"
	"heterodc/internal/sys"
)

// Runtime-library function names.
const (
	// MigrateCheckFunc is the migration-point call-out: it reads the
	// per-thread migration-request word on the vDSO page and, when set,
	// performs the state transformation and migration syscall.
	MigrateCheckFunc = "__migrate_check"
	// StartFunc is the process entry shim: calls main and exits.
	StartFunc = "__start"
	// ThreadStartFunc is the thread entry shim used by spawn.
	ThreadStartFunc = "__thread_start"
)

// AddRuntime installs the IR runtime shims into m (idempotent). Every
// migratable program needs them; the mini-C driver calls this automatically.
func AddRuntime(m *ir.Module) error {
	if m.Func(MigrateCheckFunc) != nil {
		return nil
	}

	// __migrate_check: the paper's migration point body — "a function call
	// and a memory read". Reads the current tid (a per-CPU value the core
	// materialises, standing in for the thread-pointer register), then the
	// per-thread request word; traps into the kernel only when requested.
	{
		b := ir.NewFunc(MigrateCheckFunc, ir.Void)
		b.F.NoMigrate = true
		tidAddr := b.Const(int64(sys.VDSOTidAddr))
		tid := b.Load(ir.I64, tidAddr, 0)
		off := b.BinImm(ir.Shl, tid, 3)
		base := b.Const(int64(mem.VDSOBase + sys.VDSOFlagsOff))
		flagAddr := b.Bin(ir.Add, base, off)
		req := b.Load(ir.I64, flagAddr, 0)
		doBlk := b.NewBlock("do")
		retBlk := b.NewBlock("ret")
		b.SetBlock(0)
		b.CondBr(req, doBlk, retBlk)
		b.SetBlock(doBlk)
		target := b.BinImm(ir.Sub, req, 1)
		b.Syscall(sys.SysMigrate, target)
		b.Br(retBlk)
		b.SetBlock(retBlk)
		b.Ret(ir.NoV)
		if err := m.AddFunc(b.Done()); err != nil {
			return err
		}
	}

	// __start: process entry. Calls main() and exits with its result.
	{
		b := ir.NewFunc(StartFunc, ir.Void)
		b.F.NoMigrate = true
		b.F.IsEntry = true
		ret := b.Call(ir.I64, "main")
		b.Syscall(sys.SysExit, ret)
		b.Ret(ir.NoV)
		if err := m.AddFunc(b.Done()); err != nil {
			return err
		}
	}

	// __thread_start(fn, arg): thread entry. Calls fn(arg) indirectly and
	// exits the thread with its result.
	{
		b := ir.NewFunc(ThreadStartFunc, ir.Void,
			ir.Param{Name: "fn", Type: ir.Ptr},
			ir.Param{Name: "arg", Type: ir.I64})
		b.F.NoMigrate = true
		b.F.IsEntry = true
		ret := b.CallInd(ir.I64, b.Param(0), b.Param(1))
		b.Syscall(sys.SysExitThr, ret)
		b.Ret(ir.NoV)
		if err := m.AddFunc(b.Done()); err != nil {
			return err
		}
	}
	return nil
}

// MigrationOptions controls the migration-point insertion pass. The paper
// inserts points at function boundaries and then — guided by a
// Valgrind-based instruction-distance analysis — at additional locations
// until the application can migrate roughly once per scheduling quantum,
// while keeping check overhead negligible. The static equivalents here:
// direct points at outer-loop back edges; down-counting polls (two
// instructions per iteration, one point per CounterInterval iterations) in
// nested phase loops, call-containing loops and large-bodied innermost
// loops; nothing in small hot leaves and tight inner loops, whose gaps the
// enclosing polls bound.
type MigrationOptions struct {
	// FunctionEntry inserts a point at every function entry.
	FunctionEntry bool
	// FunctionExit inserts a point before every return.
	FunctionExit bool
	// LoopBackEdges inserts points on loop back edges.
	LoopBackEdges bool
	// MaxLoopDepth limits back-edge points to loops nested at most this
	// deep (1 = outermost loops only). 0 means 1.
	MaxLoopDepth int
	// SkipSmallLeaf skips insertion entirely in leaf functions with at most
	// this many IR instructions (0 means 16). Such functions execute a
	// bounded handful of instructions between their caller's points.
	SkipSmallLeaf int
	// MinLoopBody is the smallest static loop body (IR instructions) that
	// receives a back-edge point (0 means 24); smaller loops amortise their
	// caller-side points instead, keeping check overhead negligible.
	MinLoopBody int
	// CounterLoops adds counter-based polling to the remaining substantial
	// loops (nested phases etc.): a register counter incremented per
	// iteration, reaching a migration point every CounterInterval
	// iterations. This bounds the migration response gap inside long
	// phases at ~3 extra instructions per iteration.
	CounterLoops bool
	// CounterInterval is the polling period in iterations (0 means 32).
	CounterInterval int64
	// CounterMinBody is the smallest call-free innermost loop body (IR
	// instructions) that still receives a polling counter (0 means 20): at
	// that size the two-instruction poll stays under ~10% of the body, and
	// without it a long trip count leaves a multi-quantum response gap.
	CounterMinBody int
}

// DefaultMigrationOptions mirrors the paper's final configuration.
func DefaultMigrationOptions() MigrationOptions {
	return MigrationOptions{
		FunctionEntry: true, FunctionExit: true, LoopBackEdges: true,
		MaxLoopDepth: 1, SkipSmallLeaf: 16, MinLoopBody: 24,
		CounterLoops: true, CounterInterval: 32, CounterMinBody: 20,
	}
}

// InsertMigrationPoints runs the migration-point pass over every migratable
// function in m and re-finalises call-site IDs. It requires AddRuntime to
// have run.
func InsertMigrationPoints(m *ir.Module, opt MigrationOptions) error {
	if m.Func(MigrateCheckFunc) == nil {
		return fmt.Errorf("compiler: runtime not installed (call AddRuntime first)")
	}
	maxDepth := opt.MaxLoopDepth
	if maxDepth <= 0 {
		maxDepth = 1
	}
	smallLeaf := opt.SkipSmallLeaf
	if smallLeaf <= 0 {
		smallLeaf = 16
	}
	minBody := opt.MinLoopBody
	if minBody <= 0 {
		minBody = 24
	}
	interval := opt.CounterInterval
	if interval <= 0 {
		interval = 32
	}
	counterMinBody := opt.CounterMinBody
	if counterMinBody <= 0 {
		counterMinBody = 20
	}
	size := 0
	for _, f := range m.Funcs {
		size += irLen(f)
	}
	p := pointPass{chunk: size / 2, later: max(size/16, 16)}
	for _, f := range m.Funcs {
		if f.NoMigrate {
			continue
		}
		if isSmallLeaf(f, smallLeaf) {
			continue
		}
		p.depth = loopDepths(f, p.depth)
		depth := p.depth
		// One polling counter per function, shared by all counted loops.
		counter := ir.NoV
		p.edges = p.edges[:0]
		nBlocks := len(f.Blocks) // counted-loop expansion appends blocks
		for bi := 0; bi < nBlocks; bi++ {
			blk := f.Blocks[bi]
			// points lists the instructions that get a point call in front.
			p.points = p.points[:0]
			spare := 0
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				if in.Kind == ir.KRet && opt.FunctionExit {
					p.points = append(p.points, ii)
				}
				if opt.LoopBackEdges && isBackEdge(in, bi) {
					body := loopBodySize(f, in, bi)
					direct := depth[bi] <= maxDepth && body >= minBody
					// Counter polling covers the loops direct points skip:
					// nested phase loops, call-containing loops (their
					// callees may be point-free leaves), and large-bodied
					// innermost loops whose trip counts would otherwise
					// leave multi-quantum response gaps.
					counted := !direct && opt.CounterLoops &&
						((body >= minBody/2 && (loopContainsLoop(in, bi, depth) || loopContainsCall(f, in, bi))) ||
							body >= counterMinBody)
					if direct {
						p.points = append(p.points, ii)
					} else if counted {
						// Defer: the terminator moves into an expansion,
						// which grows the block by one.
						if counter == ir.NoV {
							counter = f.NewVReg(ir.I64)
						}
						p.edges = append(p.edges, bi)
						spare = 1
					}
				}
			}
			entry := opt.FunctionEntry && bi == 0
			if entry || len(p.points) > 0 || spare > 0 {
				blk.Instrs = p.withPoints(blk.Instrs, entry, spare)
			}
		}
		if counter != ir.NoV {
			// Initialise the down-counter at function entry (after the entry
			// point call, order irrelevant), keeping the room the entry
			// block's own expansion may need.
			entry := f.Blocks[0]
			room := 0
			if p.edges[0] == 0 {
				room = 1
			}
			instrs := p.carve(len(entry.Instrs) + 1 + room)
			instrs = append(instrs, ir.Instr{Kind: ir.KConst, Dst: counter, Imm: interval, A: ir.NoV, B: ir.NoV, C: ir.NoV})
			entry.Instrs = append(instrs, entry.Instrs...)
			// All the poll blocks go in at once, so the block list grows
			// once; descending block order keeps earlier indices valid while
			// the expansions insert them.
			f.Blocks = slices.Grow(f.Blocks, 2*len(p.edges))
			for i := len(p.edges) - 1; i >= 0; i-- {
				p.expandCountedEdge(f, p.edges[i], counter, interval)
			}
		}
	}
	// Re-assign call-site IDs deterministically across the whole module so
	// both backends agree.
	for _, f := range m.Funcs {
		f.Finish()
	}
	return nil
}

// pointPass is the state of one InsertMigrationPoints call: scratch it
// reuses from function to function, and the chunks it carves the module's
// new instruction arrays and poll blocks from.
type pointPass struct {
	depth  []int // the current function's loop depths
	points []int // indices of the current block's instructions that get a point
	edges  []int // blocks of the current function whose back edges are counted

	instrs       []ir.Instr
	chunk, later int // instructions in the next chunk and in those after it
	blocks       []ir.Block
}

// pointBlockChunk is the number of poll blocks in a chunk: two per counted
// edge.
const pointBlockChunk = 16

// carve returns an empty instruction array with room for exactly n. The
// first chunk holds half the module's instructions before the pass, the
// later ones an eighth of that: for 42 of the 49 programs of the toolchain
// golden set (the NPB builds and the fuzz corpus) the first chunk holds all
// the pass carves, with 2 to 23 % to spare. The module dies with its build,
// so a chunk's unused tail costs only that build.
func (p *pointPass) carve(n int) []ir.Instr {
	if n > len(p.instrs) {
		p.instrs = make([]ir.Instr, max(n, p.chunk))
		p.chunk = p.later
	}
	out := p.instrs[:0:n]
	p.instrs = p.instrs[n:]
	return out
}

// pointCall is a migration point: a call of the runtime's check.
func pointCall() ir.Instr {
	return ir.Instr{Kind: ir.KCall, Dst: ir.NoV, A: ir.NoV, B: ir.NoV, C: ir.NoV, Sym: MigrateCheckFunc}
}

// withPoints returns instrs with a point call in front of each index in
// p.points (ascending), and one at the top when entry is set, in a new
// array of exactly that length plus spare.
func (p *pointPass) withPoints(instrs []ir.Instr, entry bool, spare int) []ir.Instr {
	n := len(instrs) + len(p.points) + spare
	if entry {
		n++
	}
	out := p.carve(n)
	if entry {
		out = append(out, pointCall())
	}
	prev := 0
	for _, ii := range p.points {
		out = append(out, instrs[prev:ii]...)
		out = append(out, pointCall())
		prev = ii
	}
	return append(out, instrs[prev:]...)
}

// expandCountedEdge rewrites block bi's terminator T into a down-counting
// poll:
//
//	bi:        ... ; cnt = cnt - 1 ; condbr cnt -> contBlk, checkBlk
//	checkBlk:  cnt = interval ; call __migrate_check ; br contBlk
//	contBlk:   T
//
// The two new blocks are inserted immediately after bi (renumbering later
// branch targets) so the block-index loop heuristics — and therefore
// register-allocation weights — see the same loop structure as before.
// Two extra instructions per iteration; one point per interval iterations.
// f.Blocks must have room for the two blocks.
func (p *pointPass) expandCountedEdge(f *ir.Func, bi int, counter ir.VReg, interval int64) {
	blk := f.Blocks[bi]
	n := len(blk.Instrs)
	term := blk.Instrs[n-1]

	checkIdx := int32(bi + 1)
	contIdx := int32(bi + 2)

	// Renumber existing branch targets for the two inserted blocks; the
	// moved terminator's own targets shift likewise (it sat in block bi, so
	// backward targets <= bi are unaffected and forward ones shift).
	for _, b := range f.Blocks {
		for ii := range b.Instrs {
			shiftTargets(&b.Instrs[ii], bi)
		}
	}
	shiftTargets(&term, bi)

	dec := ir.Instr{Kind: ir.KBinImm, Bin: ir.Sub, Dst: counter, A: counter, Imm: 1, B: ir.NoV, C: ir.NoV}
	br := ir.Instr{Kind: ir.KCondBr, A: counter, TargetA: contIdx, TargetB: checkIdx, Dst: ir.NoV, B: ir.NoV, C: ir.NoV}
	blk.Instrs = append(blk.Instrs[:n-1], dec, br) // in the room withPoints left

	if len(p.blocks) < 2 {
		p.blocks = make([]ir.Block, pointBlockChunk)
	}
	checkBlk, contBlk := &p.blocks[0], &p.blocks[1]
	p.blocks = p.blocks[2:]
	checkBlk.Name = "poll.check"
	checkBlk.Instrs = append(p.carve(3),
		ir.Instr{Kind: ir.KConst, Dst: counter, Imm: interval, A: ir.NoV, B: ir.NoV, C: ir.NoV},
		pointCall(),
		ir.Instr{Kind: ir.KBr, TargetA: contIdx, Dst: ir.NoV, A: ir.NoV, B: ir.NoV, C: ir.NoV})
	contBlk.Name = "poll.cont"
	contBlk.Instrs = append(p.carve(1), term)
	f.Blocks = slices.Insert(f.Blocks, bi+1, checkBlk, contBlk)
}

// shiftTargets moves in's branch targets past block bi up by two.
func shiftTargets(in *ir.Instr, bi int) {
	switch in.Kind {
	case ir.KBr:
		if int(in.TargetA) > bi {
			in.TargetA += 2
		}
	case ir.KCondBr:
		if int(in.TargetA) > bi {
			in.TargetA += 2
		}
		if int(in.TargetB) > bi {
			in.TargetB += 2
		}
	}
}

// loopHead returns the first block of the loop the back edge at block bi
// (terminator in) closes: the earliest block the terminator branches to, or
// bi itself when it branches nowhere earlier. The loop is blocks
// [loopHead, bi].
func loopHead(in *ir.Instr, bi int) int {
	head := bi
	switch in.Kind {
	case ir.KBr:
		head = min(head, int(in.TargetA))
	case ir.KCondBr:
		head = min(head, int(in.TargetA), int(in.TargetB))
	}
	return head
}

// loopContainsLoop reports whether the loop closed by the back edge at
// (block bi) contains a deeper nested loop. Counters go only on such
// loops: the innermost loops' gaps are bounded by the enclosing counter,
// and keeping them polling-free keeps the per-iteration overhead of hot
// kernels negligible.
func loopContainsLoop(in *ir.Instr, bi int, depth []int) bool {
	for b := loopHead(in, bi); b <= bi; b++ {
		if depth[b] > depth[bi] {
			return true
		}
	}
	return false
}

// loopContainsCall reports whether the loop closed by the back edge at
// block bi contains a call-like instruction. Such loops pay call overhead
// per iteration already, so a polling counter is negligible; and their
// callees may be point-free leaves, leaving the loop otherwise uncovered.
func loopContainsCall(f *ir.Func, in *ir.Instr, bi int) bool {
	for b := loopHead(in, bi); b <= bi; b++ {
		for ii := range f.Blocks[b].Instrs {
			if f.Blocks[b].Instrs[ii].IsCallLike() {
				return true
			}
		}
	}
	return false
}

// isSmallLeaf reports whether f is a call-free function small enough that
// points inside it are unnecessary. Functions containing syscalls are never
// leaves: spin-wait helpers (yield) must stay migration-responsive.
func isSmallLeaf(f *ir.Func, limit int) bool {
	n := 0
	for _, blk := range f.Blocks {
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			if in.IsCallLike() {
				return false
			}
			n++
		}
	}
	return n <= limit
}

// loopBodySize returns the static instruction count of the loop body the
// back edge at (block bi, terminator in) closes: blocks [target, bi].
func loopBodySize(f *ir.Func, in *ir.Instr, bi int) int {
	n := 0
	for b := loopHead(in, bi); b <= bi; b++ {
		n += len(f.Blocks[b].Instrs)
	}
	return n
}

// isBackEdge reports whether the terminator branches backward (to a block
// index <= the current block), the loop heuristic used for point placement.
func isBackEdge(in *ir.Instr, bi int) bool {
	switch in.Kind {
	case ir.KBr:
		return int(in.TargetA) <= bi
	case ir.KCondBr:
		return int(in.TargetA) <= bi || int(in.TargetB) <= bi
	}
	return false
}
