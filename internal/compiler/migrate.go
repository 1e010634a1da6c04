package compiler

import (
	"fmt"

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
	var points []int
	for _, f := range m.Funcs {
		if f.NoMigrate {
			continue
		}
		if isSmallLeaf(f, smallLeaf) {
			continue
		}
		depth := blockLoopDepths(f)
		// One polling counter per function, shared by all counted loops.
		counter := ir.NoV
		var countedEdges []countedEdge
		nBlocks := len(f.Blocks) // counted-loop expansion appends blocks
		for bi := 0; bi < nBlocks; bi++ {
			blk := f.Blocks[bi]
			// points lists the instructions that get a point call in front.
			points = points[:0]
			spare := 0
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				if in.Kind == ir.KRet && opt.FunctionExit {
					points = append(points, ii)
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
						points = append(points, ii)
					} else if counted {
						// Defer: the terminator moves into an expansion,
						// which grows the block by one.
						if counter == ir.NoV {
							counter = f.NewVReg(ir.I64)
						}
						countedEdges = append(countedEdges, countedEdge{block: bi})
						spare = 1
					}
				}
			}
			entry := opt.FunctionEntry && bi == 0
			if entry || len(points) > 0 || spare > 0 {
				blk.Instrs = withPoints(blk.Instrs, entry, points, spare)
			}
		}
		if counter != ir.NoV {
			// Initialise the down-counter at function entry (after the entry
			// point call, order irrelevant).
			entry := f.Blocks[0]
			init := ir.Instr{Kind: ir.KConst, Dst: counter, Imm: interval, A: ir.NoV, B: ir.NoV, C: ir.NoV}
			entry.Instrs = append([]ir.Instr{init}, entry.Instrs...)
			// Descending block order keeps earlier indices valid while the
			// expansions insert blocks.
			for i := len(countedEdges) - 1; i >= 0; i-- {
				expandCountedEdge(f, countedEdges[i].block, counter, interval)
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

// pointCall is a migration point: a call of the runtime's check.
func pointCall() ir.Instr {
	return ir.Instr{Kind: ir.KCall, Dst: ir.NoV, A: ir.NoV, B: ir.NoV, C: ir.NoV, Sym: MigrateCheckFunc}
}

// withPoints returns instrs with a point call in front of each index in
// points (ascending), and one at the top when entry is set, in a new array
// of exactly that length plus spare.
func withPoints(instrs []ir.Instr, entry bool, points []int, spare int) []ir.Instr {
	n := len(instrs) + len(points) + spare
	if entry {
		n++
	}
	out := make([]ir.Instr, 0, n)
	if entry {
		out = append(out, pointCall())
	}
	prev := 0
	for _, ii := range points {
		out = append(out, instrs[prev:ii]...)
		out = append(out, pointCall())
		prev = ii
	}
	return append(out, instrs[prev:]...)
}

// countedEdge marks a block whose back-edge terminator gets counter-based
// polling.
type countedEdge struct {
	block int
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
func expandCountedEdge(f *ir.Func, bi int, counter ir.VReg, interval int64) {
	blk := f.Blocks[bi]
	n := len(blk.Instrs)
	term := blk.Instrs[n-1]

	checkIdx := bi + 1
	contIdx := bi + 2

	// Renumber existing branch targets for the two inserted blocks.
	for _, b := range f.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			switch in.Kind {
			case ir.KBr:
				if in.TargetA > bi {
					in.TargetA += 2
				}
			case ir.KCondBr:
				if in.TargetA > bi {
					in.TargetA += 2
				}
				if in.TargetB > bi {
					in.TargetB += 2
				}
			}
		}
	}
	// The moved terminator's own targets may also need shifting (it sat in
	// block bi; backward targets <= bi are unaffected, forward ones shift).
	switch term.Kind {
	case ir.KBr:
		if term.TargetA > bi {
			term.TargetA += 2
		}
	case ir.KCondBr:
		if term.TargetA > bi {
			term.TargetA += 2
		}
		if term.TargetB > bi {
			term.TargetB += 2
		}
	}

	dec := ir.Instr{Kind: ir.KBinImm, Bin: ir.Sub, Dst: counter, A: counter, Imm: 1, B: ir.NoV, C: ir.NoV}
	br := ir.Instr{Kind: ir.KCondBr, A: counter, TargetA: contIdx, TargetB: checkIdx, Dst: ir.NoV, B: ir.NoV, C: ir.NoV}
	blk.Instrs = append(blk.Instrs[:n-1], dec, br) // in the room withPoints left

	reset := ir.Instr{Kind: ir.KConst, Dst: counter, Imm: interval, A: ir.NoV, B: ir.NoV, C: ir.NoV}
	chk := pointCall()
	toCont := ir.Instr{Kind: ir.KBr, TargetA: contIdx, Dst: ir.NoV, A: ir.NoV, B: ir.NoV, C: ir.NoV}
	checkBlk := &ir.Block{Name: "poll.check", Instrs: []ir.Instr{reset, chk, toCont}}
	contBlk := &ir.Block{Name: "poll.cont", Instrs: []ir.Instr{term}}

	rest := append([]*ir.Block{checkBlk, contBlk}, f.Blocks[bi+1:]...)
	f.Blocks = append(f.Blocks[:bi+1], rest...)
}

// loopContainsLoop reports whether the loop closed by the back edge at
// (block bi) contains a deeper nested loop. Counters go only on such
// loops: the innermost loops' gaps are bounded by the enclosing counter,
// and keeping them polling-free keeps the per-iteration overhead of hot
// kernels negligible.
func loopContainsLoop(in *ir.Instr, bi int, depth []int) bool {
	tgt := bi
	switch in.Kind {
	case ir.KBr:
		tgt = in.TargetA
	case ir.KCondBr:
		tgt = in.TargetA
		if in.TargetB < tgt {
			tgt = in.TargetB
		}
	}
	if tgt > bi {
		tgt = bi
	}
	for b := tgt; b <= bi; b++ {
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
	tgt := bi
	switch in.Kind {
	case ir.KBr:
		tgt = in.TargetA
	case ir.KCondBr:
		tgt = in.TargetA
		if in.TargetB < tgt {
			tgt = in.TargetB
		}
	}
	if tgt > bi {
		tgt = bi
	}
	for b := tgt; b <= bi; b++ {
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
	tgt := bi
	switch in.Kind {
	case ir.KBr:
		tgt = in.TargetA
	case ir.KCondBr:
		tgt = in.TargetA
		if in.TargetB < tgt {
			tgt = in.TargetB
		}
	}
	if tgt > bi {
		tgt = bi
	}
	n := 0
	for b := tgt; b <= bi; b++ {
		n += len(f.Blocks[b].Instrs)
	}
	return n
}

// blockLoopDepths estimates per-block loop nesting: each back edge j->k
// (k <= j) deepens blocks k..j by one.
func blockLoopDepths(f *ir.Func) []int {
	depth := make([]int, len(f.Blocks))
	for bi, blk := range f.Blocks {
		in := &blk.Instrs[len(blk.Instrs)-1]
		var targets []int
		switch in.Kind {
		case ir.KBr:
			targets = []int{in.TargetA}
		case ir.KCondBr:
			targets = []int{in.TargetA, in.TargetB}
		}
		for _, tgt := range targets {
			if tgt <= bi {
				for b := tgt; b <= bi; b++ {
					depth[b]++
				}
			}
		}
	}
	return depth
}

// isBackEdge reports whether the terminator branches backward (to a block
// index <= the current block), the loop heuristic used for point placement.
func isBackEdge(in *ir.Instr, bi int) bool {
	switch in.Kind {
	case ir.KBr:
		return in.TargetA <= bi
	case ir.KCondBr:
		return in.TargetA <= bi || in.TargetB <= bi
	}
	return false
}
