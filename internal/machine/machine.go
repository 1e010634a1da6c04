// Package machine implements the per-core CPU simulator: it fetches,
// decodes (from pre-decoded streams) and executes the simulated ISA with a
// cycle cost model and L1 instruction/data cache simulation. Traps
// (syscalls, page faults, arithmetic errors) are surfaced as events to the
// kernel, which owns scheduling, memory management and migration.
package machine

import (
	"encoding/binary"
	"fmt"
	"math"

	"heterodc/internal/cache"
	"heterodc/internal/isa"
	"heterodc/internal/link"
	"heterodc/internal/mem"
	"heterodc/internal/sys"
)

// Event is what a Step can surface to the kernel.
type Event int

const (
	// EvNone: instruction retired normally.
	EvNone Event = iota
	// EvSyscall: an OpSyscall trapped; arguments are in the ABI registers.
	// The PC has been advanced past the syscall instruction.
	EvSyscall
	// EvFault: a memory access touched a non-present page. FaultAddr and
	// FaultWrite describe it; the PC still points at the faulting
	// instruction, which will re-execute once the page is resident.
	EvFault
	// EvError: the program performed an illegal operation (divide by zero,
	// wild jump, bad indirect call). Err holds details.
	EvError
)

// Core is one simulated CPU core. Registers are sized for the larger
// register file; the active ISA's Desc says how many are architectural.
type Core struct {
	Desc *isa.Desc
	Prog *link.Program
	Mem  *mem.Memory

	RegsI [32]int64
	RegsF [32]float64
	PC    uint64

	// Fn/Idx cache the current function and instruction index for PC.
	Fn  *link.Func
	Idx int

	ICache *cache.Cache
	DCache *cache.Cache

	// Cycles accumulates cost since the kernel last reset it.
	Cycles int64
	// Instrs counts retired instructions (for IPC, load metrics and the
	// Valgrind-style migration-point analysis).
	Instrs uint64

	// CurTID / CurNode are per-CPU values the kernel sets at dispatch; loads
	// from the vDSO magic addresses observe them (the stand-in for reading
	// the thread-pointer register).
	CurTID  int64
	CurNode int64

	// Fault details when Step returns EvFault.
	FaultAddr  uint64
	FaultWrite bool
	// Err when Step returns EvError.
	Err error

	// MigrateCheckEntry, when non-zero, is the entry address of
	// __migrate_check; calls to it fire OnMigratePoint with the number of
	// instructions retired since the previous migration point.
	MigrateCheckEntry uint64
	OnMigratePoint    func(instrsSince uint64)
	lastMigratePoint  uint64
	// OnAnyCall, when set, fires on every OpCall with the instruction count
	// since the previous call (the "Pre" histogram of Figures 3-5).
	OnAnyCall   func(instrsSince uint64)
	lastAnyCall uint64

	// OnMigratePointAt, when set, fires at each migration point with the
	// containing function's name (experiment attribution).
	OnMigratePointAt func(fn string)

	// OnPointKernel is the kernel-owned migration-point hook (the checkpoint
	// policy's tick). It is installed once at kernel construction and must
	// stay independent of the instrumentation hooks above, which experiments
	// overwrite freely via InstrumentCalls.
	OnPointKernel func()

	// CostFn, when set, replaces the native per-op base cycle cost — the
	// hook the DBT-emulation and managed-runtime baselines use to model
	// translated/interpreted execution.
	CostFn func(op isa.Op) int64

	// tlb caches Mem's page translations for guest loads and stores. It is
	// allocated at the first instruction: most cores of a fleet never run.
	tlb *mem.TLB
}

// NewCore builds a core for desc with fresh caches.
func NewCore(desc *isa.Desc) *Core {
	return &Core{
		Desc:   desc,
		ICache: cache.New(cache.DefaultL1(desc.L1MissPenalty)),
		DCache: cache.New(cache.DefaultL1(desc.L1MissPenalty)),
	}
}

// SetPC repositions execution at pc, resolving the containing function.
func (c *Core) SetPC(pc uint64) error {
	fn, idx, err := c.locate(pc)
	if err != nil {
		return err
	}
	c.Fn, c.Idx, c.PC = fn, idx, pc
	return nil
}

// locate resolves pc to its function and instruction index.
func (c *Core) locate(pc uint64) (*link.Func, int, error) {
	fn := c.Prog.FuncAt(pc)
	if fn == nil {
		return nil, 0, fmt.Errorf("machine: jump to unmapped pc %#x", pc)
	}
	idx, err := fn.IndexOf(pc)
	return fn, idx, err
}

// ResetPointCounters clears the migration-point instrumentation baselines
// (call when a new thread is dispatched on the core).
func (c *Core) ResetPointCounters() {
	c.lastMigratePoint = c.Instrs
	c.lastAnyCall = c.Instrs
}

func (c *Core) fault(addr uint64, write bool) Event {
	c.FaultAddr = addr
	c.FaultWrite = write
	return EvFault
}

func (c *Core) errorf(format string, args ...interface{}) Event {
	c.Err = fmt.Errorf(format, args...)
	return EvError
}

// load performs an 8-byte data read with vDSO magic handling and returns
// the value and the D-cache penalty. ok is false on a page fault, which is
// recorded in FaultAddr/FaultWrite.
func (c *Core) load(addr uint64) (v uint64, penalty int64, ok bool) {
	switch addr {
	case sys.VDSOTidAddr:
		return uint64(c.CurTID), 0, true
	case sys.VDSONodeAddr:
		return uint64(c.CurNode), 0, true
	}
	if v, ok = c.tlb.ReadU64(addr); !ok {
		c.fault(addr, false)
		return 0, 0, false
	}
	return v, c.DCache.AccessRange(addr, 8), true
}

// store performs an 8-byte data write and returns the D-cache penalty; ok
// is false on a page fault, which is recorded in FaultAddr/FaultWrite.
func (c *Core) store(addr uint64, v uint64) (penalty int64, ok bool) {
	if !c.tlb.WriteU64(addr, v) {
		c.fault(addr, true)
		return 0, false
	}
	return c.DCache.AccessRange(addr, 8), true
}

// Step executes one instruction. On EvNone/EvSyscall the PC has advanced;
// on EvFault/EvError it has not.
func (c *Core) Step() Event {
	// Any cycle count exhausts this budget, so run retires one instruction.
	return c.run(math.MinInt64)
}

// Run executes instructions until one surfaces an event other than EvNone
// or Cycles reaches budget, whichever comes first; it returns EvNone for an
// exhausted budget. It is the loop `for c.Cycles < budget { c.Step() }`
// with the core's state held in locals between instructions. The hooks may
// read the core (it is brought up to date before they fire) but must leave
// it, and the presence and protection of Mem's pages, alone.
func (c *Core) Run(budget int64) Event {
	if c.Cycles >= budget {
		return EvNone
	}
	return c.run(budget)
}

// vdsoPage is the page index of the vDSO, whose magic addresses a load must
// not read from memory.
const vdsoPage = mem.VDSOBase >> mem.PageShift

// run is the interpreter: it executes at least one instruction, then more
// while Cycles stays below budget.
//
// Everything the loop touches per instruction stays in locals, the hits the
// loop counts itself included: they are added to the caches' Accesses on
// every return and before any hook fires. An access wholly inside the line
// at the front of its set (cache.Cache.Front) is such a hit, and so is the
// fetch of an instruction flagged SameLine reached straight from its
// predecessor, whose fetch left that line at the front; only the rest calls
// the cache. A load or store of a word inside one page that the TLB holds
// (for loads: not the vDSO page) is done here; anything else goes through
// load and store.
func (c *Core) run(budget int64) Event {
	d := c.Desc
	costs := isa.Costs(d.Arch)
	slow := c.CostFn != nil // consulted per instruction, behind one flag
	if c.tlb == nil {
		c.tlb = new(mem.TLB)
	}
	tlb := c.tlb
	tlb.Attach(c.Mem)
	ic, dc := c.ICache, c.DCache
	ish, dsh := ic.LineShift(), dc.LineShift()
	var ihits, dhits uint64
	// seq: the previous fetch was code[idx-1], and the flags hold for the
	// I-cache's lines.
	wide, seq := ish >= isa.LineShift, false
	ri := &c.RegsI
	rf := &c.RegsF
	fn, idx := c.Fn, c.Idx
	code, addrs := fn.Code, fn.Addr
	cycles, instrs := c.Cycles, c.Instrs
	ev := EvNone

loop:
	for {
		in := &code[idx]

		// Instruction fetch: base op cost plus I-cache cost.
		cost := costs[in.Op]
		if slow {
			cost = c.CostFn(in.Op)
		}
		if in.SameLine && seq {
			ihits++
		} else if pc := addrs[idx]; (pc+uint64(in.Size)-1)>>ish == pc>>ish && ic.Front(pc>>ish) {
			ihits++
		} else {
			cost += ic.AccessRange(pc, int64(in.Size))
		}

		next := idx + 1
		seq = wide
		switch in.Op {
		case isa.OpNop:
		case isa.OpAdd:
			ri[in.Rd] = ri[in.Rs1] + ri[in.Rs2]
		case isa.OpSub:
			ri[in.Rd] = ri[in.Rs1] - ri[in.Rs2]
		case isa.OpMul:
			ri[in.Rd] = ri[in.Rs1] * ri[in.Rs2]
		case isa.OpDiv:
			b := ri[in.Rs2]
			if b == 0 {
				ev = c.errorf("machine: division by zero at %#x (%s)", addrs[idx], fn.Name)
				break loop
			}
			a := ri[in.Rs1]
			if a == math.MinInt64 && b == -1 {
				ri[in.Rd] = math.MinInt64
			} else {
				ri[in.Rd] = a / b
			}
		case isa.OpRem:
			b := ri[in.Rs2]
			if b == 0 {
				ev = c.errorf("machine: remainder by zero at %#x (%s)", addrs[idx], fn.Name)
				break loop
			}
			a := ri[in.Rs1]
			if a == math.MinInt64 && b == -1 {
				ri[in.Rd] = 0
			} else {
				ri[in.Rd] = a % b
			}
		case isa.OpAnd:
			ri[in.Rd] = ri[in.Rs1] & ri[in.Rs2]
		case isa.OpOr:
			ri[in.Rd] = ri[in.Rs1] | ri[in.Rs2]
		case isa.OpXor:
			ri[in.Rd] = ri[in.Rs1] ^ ri[in.Rs2]
		case isa.OpShl:
			ri[in.Rd] = ri[in.Rs1] << (uint64(ri[in.Rs2]) & 63)
		case isa.OpShr:
			ri[in.Rd] = ri[in.Rs1] >> (uint64(ri[in.Rs2]) & 63)
		case isa.OpAddI:
			ri[in.Rd] = ri[in.Rs1] + in.Imm
		case isa.OpMulI:
			ri[in.Rd] = ri[in.Rs1] * in.Imm
		case isa.OpAndI:
			ri[in.Rd] = ri[in.Rs1] & in.Imm
		case isa.OpOrI:
			ri[in.Rd] = ri[in.Rs1] | in.Imm
		case isa.OpXorI:
			ri[in.Rd] = ri[in.Rs1] ^ in.Imm
		case isa.OpShlI:
			ri[in.Rd] = ri[in.Rs1] << (uint64(in.Imm) & 63)
		case isa.OpShrI:
			ri[in.Rd] = ri[in.Rs1] >> (uint64(in.Imm) & 63)
		case isa.OpLdi:
			ri[in.Rd] = in.Imm
		case isa.OpMov:
			ri[in.Rd] = ri[in.Rs1]
		case isa.OpCmpEq:
			ri[in.Rd] = b2i(ri[in.Rs1] == ri[in.Rs2])
		case isa.OpCmpNe:
			ri[in.Rd] = b2i(ri[in.Rs1] != ri[in.Rs2])
		case isa.OpCmpLt:
			ri[in.Rd] = b2i(ri[in.Rs1] < ri[in.Rs2])
		case isa.OpCmpLe:
			ri[in.Rd] = b2i(ri[in.Rs1] <= ri[in.Rs2])
		case isa.OpCmpGt:
			ri[in.Rd] = b2i(ri[in.Rs1] > ri[in.Rs2])
		case isa.OpCmpGe:
			ri[in.Rd] = b2i(ri[in.Rs1] >= ri[in.Rs2])
		case isa.OpFAdd:
			rf[in.Rd] = rf[in.Rs1] + rf[in.Rs2]
		case isa.OpFSub:
			rf[in.Rd] = rf[in.Rs1] - rf[in.Rs2]
		case isa.OpFMul:
			rf[in.Rd] = rf[in.Rs1] * rf[in.Rs2]
		case isa.OpFDiv:
			rf[in.Rd] = rf[in.Rs1] / rf[in.Rs2]
		case isa.OpFNeg:
			rf[in.Rd] = -rf[in.Rs1]
		case isa.OpFSqrt:
			rf[in.Rd] = math.Sqrt(rf[in.Rs1])
		case isa.OpFMov:
			rf[in.Rd] = rf[in.Rs1]
		case isa.OpFLdi:
			rf[in.Rd] = in.FImm
		case isa.OpFCmpEq:
			ri[in.Rd] = b2i(rf[in.Rs1] == rf[in.Rs2])
		case isa.OpFCmpNe:
			ri[in.Rd] = b2i(rf[in.Rs1] != rf[in.Rs2])
		case isa.OpFCmpLt:
			ri[in.Rd] = b2i(rf[in.Rs1] < rf[in.Rs2])
		case isa.OpFCmpLe:
			ri[in.Rd] = b2i(rf[in.Rs1] <= rf[in.Rs2])
		case isa.OpFCmpGt:
			ri[in.Rd] = b2i(rf[in.Rs1] > rf[in.Rs2])
		case isa.OpFCmpGe:
			ri[in.Rd] = b2i(rf[in.Rs1] >= rf[in.Rs2])
		case isa.OpI2F:
			rf[in.Rd] = float64(ri[in.Rs1])
		case isa.OpF2I:
			ri[in.Rd] = f2i(rf[in.Rs1])
		case isa.OpLd:
			// The four word loads and stores each spell out the fast path:
			// sharing one case between the integer and float forms costs a
			// branch per access, about 5 % of interp's wall time.
			addr := uint64(ri[in.Rs1] + in.Imm)
			if p, off := tlb.ReadHit(addr), addr&(mem.PageSize-1); p != nil && off <= mem.PageSize-8 && addr>>mem.PageShift != vdsoPage {
				ri[in.Rd] = int64(binary.LittleEndian.Uint64(p[off : off+8 : off+8]))
				if line := addr >> dsh; (addr+7)>>dsh == line && dc.Front(line) {
					dhits++
				} else {
					cycles += dc.AccessRange(addr, 8)
				}
				break
			}
			v, penalty, ok := c.load(addr)
			if !ok {
				ev = EvFault
				break loop
			}
			cycles += penalty
			ri[in.Rd] = int64(v)
		case isa.OpSt:
			addr := uint64(ri[in.Rs1] + in.Imm)
			if p, off := tlb.WriteHit(addr), addr&(mem.PageSize-1); p != nil && off <= mem.PageSize-8 {
				binary.LittleEndian.PutUint64(p[off:off+8:off+8], uint64(ri[in.Rs2]))
				if line := addr >> dsh; (addr+7)>>dsh == line && dc.Front(line) {
					dhits++
				} else {
					cycles += dc.AccessRange(addr, 8)
				}
				break
			}
			penalty, ok := c.store(addr, uint64(ri[in.Rs2]))
			if !ok {
				ev = EvFault
				break loop
			}
			cycles += penalty
		case isa.OpLdB:
			addr := uint64(ri[in.Rs1] + in.Imm)
			v, ok := tlb.ReadU8(addr)
			if !ok {
				ev = c.fault(addr, false)
				break loop
			}
			if line := addr >> dsh; dc.Front(line) {
				dhits++
			} else {
				cycles += dc.AccessRange(addr, 1)
			}
			ri[in.Rd] = int64(v)
		case isa.OpStB:
			addr := uint64(ri[in.Rs1] + in.Imm)
			if !tlb.WriteU8(addr, byte(ri[in.Rs2])) {
				ev = c.fault(addr, true)
				break loop
			}
			if line := addr >> dsh; dc.Front(line) {
				dhits++
			} else {
				cycles += dc.AccessRange(addr, 1)
			}
		case isa.OpFLd:
			addr := uint64(ri[in.Rs1] + in.Imm)
			if p, off := tlb.ReadHit(addr), addr&(mem.PageSize-1); p != nil && off <= mem.PageSize-8 && addr>>mem.PageShift != vdsoPage {
				rf[in.Rd] = math.Float64frombits(binary.LittleEndian.Uint64(p[off : off+8 : off+8]))
				if line := addr >> dsh; (addr+7)>>dsh == line && dc.Front(line) {
					dhits++
				} else {
					cycles += dc.AccessRange(addr, 8)
				}
				break
			}
			v, penalty, ok := c.load(addr)
			if !ok {
				ev = EvFault
				break loop
			}
			cycles += penalty
			rf[in.Rd] = math.Float64frombits(v)
		case isa.OpFSt:
			addr := uint64(ri[in.Rs1] + in.Imm)
			if p, off := tlb.WriteHit(addr), addr&(mem.PageSize-1); p != nil && off <= mem.PageSize-8 {
				binary.LittleEndian.PutUint64(p[off:off+8:off+8], math.Float64bits(rf[in.Rs2]))
				if line := addr >> dsh; (addr+7)>>dsh == line && dc.Front(line) {
					dhits++
				} else {
					cycles += dc.AccessRange(addr, 8)
				}
				break
			}
			penalty, ok := c.store(addr, math.Float64bits(rf[in.Rs2]))
			if !ok {
				ev = EvFault
				break loop
			}
			cycles += penalty
		case isa.OpLea:
			ri[in.Rd] = in.Imm // linker resolved Sym+off into Imm
		case isa.OpAtomicAdd:
			addr := uint64(ri[in.Rs1] + in.Imm)
			old, penalty, ok := c.load(addr)
			if !ok {
				ev = EvFault
				break loop
			}
			cycles += penalty
			if penalty, ok = c.store(addr, uint64(int64(old)+ri[in.Rs2])); !ok {
				ev = EvFault
				break loop
			}
			cycles += penalty
			ri[in.Rd] = int64(old)
		case isa.OpAtomicCAS:
			addr := uint64(ri[in.Rs1] + in.Imm)
			old, penalty, ok := c.load(addr)
			if !ok {
				ev = EvFault
				break loop
			}
			cycles += penalty
			// The write-access check must pass even when the compare fails, so
			// ownership (and thus cross-machine atomicity) is exclusive.
			if !c.Mem.Writable(addr) {
				ev = c.fault(addr, true)
				break loop
			}
			if int64(old) == ri[in.Rs2] {
				if penalty, ok = c.store(addr, uint64(ri[in.Rs3])); !ok {
					ev = EvFault
					break loop
				}
				cycles += penalty
			}
			ri[in.Rd] = int64(old)
		case isa.OpPush:
			sp := uint64(ri[d.SP]) - 8
			penalty, ok := c.store(sp, uint64(ri[in.Rs1]))
			if !ok {
				ev = EvFault
				break loop
			}
			cycles += penalty
			ri[d.SP] = int64(sp)
		case isa.OpPop:
			sp := uint64(ri[d.SP])
			v, penalty, ok := c.load(sp)
			if !ok {
				ev = EvFault
				break loop
			}
			cycles += penalty
			ri[in.Rd] = int64(v)
			ri[d.SP] = int64(sp + 8)
		case isa.OpBr:
			next, seq = int(in.Target), false
		case isa.OpBeqz:
			if ri[in.Rs1] == 0 {
				next, seq = int(in.Target), false
			}
		case isa.OpBnez:
			if ri[in.Rs1] != 0 {
				next, seq = int(in.Target), false
			}
		case isa.OpCall, isa.OpCallR:
			var callee *link.Func
			if in.Op == isa.OpCall {
				if callee = fn.Callee(idx); callee == nil {
					ev = c.errorf("machine: call to undefined %q", in.Sym)
					break loop
				}
			} else if callee = c.Prog.FuncEntry(uint64(ri[in.Rs1])); callee == nil {
				ev = c.errorf("machine: indirect call to non-entry %#x", uint64(ri[in.Rs1]))
				break loop
			}
			// The ISA's return-address discipline.
			retAddr := addrs[idx] + uint64(in.Size)
			if d.RetAddrOnStack {
				sp := uint64(ri[d.SP]) - 8
				penalty, ok := c.store(sp, retAddr)
				if !ok {
					ev = EvFault
					break loop
				}
				cycles += penalty
				ri[d.SP] = int64(sp)
			} else {
				ri[d.LR] = int64(retAddr)
			}
			if c.OnAnyCall != nil || (c.MigrateCheckEntry != 0 && callee.Base == c.MigrateCheckEntry) {
				ic.Accesses += ihits
				dc.Accesses += dhits
				ihits, dhits = 0, 0
				c.Fn, c.Idx, c.PC, c.Cycles, c.Instrs = fn, idx, addrs[idx], cycles, instrs
				c.callHooks(callee)
			}
			fn, code, addrs, next, seq = callee, callee.Code, callee.Addr, 0, false
		case isa.OpRet:
			var ret uint64
			if d.RetAddrOnStack {
				sp := uint64(ri[d.SP])
				v, penalty, ok := c.load(sp)
				if !ok {
					ev = EvFault
					break loop
				}
				cycles += penalty
				ri[d.SP] = int64(sp + 8)
				ret = v
			} else {
				ret = uint64(ri[d.LR])
			}
			if ret == 0 {
				ev = c.errorf("machine: return from entry shim %s (pc=%#x sp=%#x fp=%#x)",
					fn.Name, addrs[idx], uint64(ri[d.SP]), uint64(ri[d.FP]))
				break loop
			}
			to, at, err := c.locate(ret)
			if err != nil {
				c.Err = err
				ev = EvError
				break loop
			}
			// The callee's fetches came between: the landing line may have
			// left the front of its set.
			fn, code, addrs, next, seq = to, to.Code, to.Addr, at, false
		case isa.OpSyscall:
			// Retires like any other instruction, then traps.
			cycles += cost
			instrs++
			idx = next
			ev = EvSyscall
			break loop
		default:
			ev = c.errorf("machine: unimplemented op %s", in.Op)
			break loop
		}

		// Retire and advance.
		cycles += cost
		instrs++
		idx = next
		if cycles >= budget {
			break
		}
	}

	ic.Accesses += ihits
	dc.Accesses += dhits
	c.Fn, c.Idx, c.Cycles, c.Instrs = fn, idx, cycles, instrs
	if idx < len(code) {
		c.PC = addrs[idx]
	} else {
		// Fell off the end of a function: functions always end in RET or a
		// branch, so this is unreachable for verified code.
		c.PC = fn.Base + fn.Size
	}
	return ev
}

// callHooks fires the migration-point and call instrumentation for a call
// to callee; the core's fields describe the calling instruction.
func (c *Core) callHooks(callee *link.Func) {
	if c.OnAnyCall != nil {
		c.OnAnyCall(c.Instrs - c.lastAnyCall)
		c.lastAnyCall = c.Instrs
	}
	if c.MigrateCheckEntry != 0 && callee.Base == c.MigrateCheckEntry {
		if c.OnMigratePoint != nil {
			c.OnMigratePoint(c.Instrs - c.lastMigratePoint)
		}
		if c.OnMigratePointAt != nil {
			c.OnMigratePointAt(c.Fn.Name)
		}
		if c.OnPointKernel != nil {
			c.OnPointKernel()
		}
		c.lastMigratePoint = c.Instrs
	}
}

// SyscallArgs extracts the syscall number and arguments per the ABI.
func (c *Core) SyscallArgs() (num int64, args [5]int64) {
	d := c.Desc
	num = c.RegsI[d.IntArgRegs[0]]
	for i := 0; i < 5 && i+1 < len(d.IntArgRegs); i++ {
		args[i] = c.RegsI[d.IntArgRegs[i+1]]
	}
	return num, args
}

// SetSyscallResult writes the kernel's return value.
func (c *Core) SetSyscallResult(v int64) {
	c.RegsI[c.Desc.IntRet] = v
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// f2i matches the IR interpreter's cross-ISA truncation semantics.
func f2i(f float64) int64 {
	if math.IsNaN(f) {
		return 0
	}
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	if f <= math.MinInt64 {
		return math.MinInt64
	}
	return int64(f)
}
