package compiler

import (
	"heterodc/internal/isa"
	"heterodc/internal/mem"
	"heterodc/internal/stackmap"
	"heterodc/internal/sys"
)

// lowerMigrateCheck emits the hand-scheduled migration-point body. Hot
// path (no migration requested): load the current tid from the vDSO per-CPU
// word, load the per-thread request word, return if zero — all in scratch
// registers, no frame. Cold path: build a normal unwindable frame (the
// stack transformation starts from here) and trap into the thread-migration
// service.
//
// The IR body of __migrate_check is semantically identical (the reference
// interpreter executes it); this is the backend's tuned implementation.
func (lo *lowerer) lowerMigrateCheck() *AsmFunc {
	d := lo.desc
	s0 := d.ScratchInt[0]
	s1 := d.ScratchInt[1]
	flagsBase := int64(mem.VDSOBase + sys.VDSOFlagsOff)

	// Hot path.
	lo.e(isa.Instr{Op: isa.OpLdi, Rd: s0, Imm: int64(sys.VDSOTidAddr)})
	lo.e(isa.Instr{Op: isa.OpLd, Rd: s0, Rs1: s0}) // tid (per-CPU read)
	lo.e(isa.Instr{Op: isa.OpShlI, Rd: s0, Rs1: s0, Imm: 3})
	lo.e(isa.Instr{Op: isa.OpLdi, Rd: s1, Imm: flagsBase})
	lo.e(isa.Instr{Op: isa.OpAdd, Rd: s1, Rs1: s1, Rs2: s0})
	lo.e(isa.Instr{Op: isa.OpLd, Rd: s1, Rs1: s1}) // request word
	slowIdx := lo.e(isa.Instr{Op: isa.OpBnez, Rs1: s1, Target: 0 /* patched */})
	lo.e(isa.Instr{Op: isa.OpRet})

	// Cold path: frame, then the migration syscall.
	lo.out[slowIdx].Target = int32(len(lo.out) - lo.base)
	if d.Arch == isa.X86 {
		lo.e(isa.Instr{Op: isa.OpPush, Rs1: d.FP})
		lo.e(isa.Instr{Op: isa.OpMov, Rd: d.FP, Rs1: d.SP})
	} else {
		lo.e(isa.Instr{Op: isa.OpAddI, Rd: d.SP, Rs1: d.SP, Imm: -16})
		lo.e(isa.Instr{Op: isa.OpSt, Rs1: d.SP, Imm: 0, Rs2: d.FP})
		lo.e(isa.Instr{Op: isa.OpSt, Rs1: d.SP, Imm: 8, Rs2: d.LR})
		lo.e(isa.Instr{Op: isa.OpAddI, Rd: d.FP, Rs1: d.SP, Imm: 0})
	}
	lo.e(isa.Instr{Op: isa.OpLdi, Rd: d.IntArgRegs[0], Imm: sys.SysMigrate})
	lo.e(isa.Instr{Op: isa.OpAddI, Rd: d.IntArgRegs[1], Rs1: s1, Imm: -1})
	lo.e(isa.Instr{Op: isa.OpSyscall, CallSiteID: 1})
	if d.Arch == isa.X86 {
		lo.e(isa.Instr{Op: isa.OpMov, Rd: d.SP, Rs1: d.FP})
		lo.e(isa.Instr{Op: isa.OpPop, Rd: d.FP})
		lo.e(isa.Instr{Op: isa.OpRet})
	} else {
		lo.e(isa.Instr{Op: isa.OpLd, Rd: d.LR, Rs1: d.FP, Imm: 8})
		lo.e(isa.Instr{Op: isa.OpAddI, Rd: d.SP, Rs1: d.FP, Imm: 16})
		lo.e(isa.Instr{Op: isa.OpLd, Rd: d.FP, Rs1: d.FP, Imm: 0})
		lo.e(isa.Instr{Op: isa.OpRet})
	}

	// The one call site is the migration syscall, which nothing is live
	// across.
	if len(lo.sites) != 1 {
		lo.sites = make([]stackmap.CallSite, 1)
	}
	lo.sites[0].ID = 1
	lo.liveEnd = append(lo.liveEnd, len(lo.live))
	af := lo.newFunc()
	af.Info.NoMigrate = true
	lo.pend(af)
	return af
}
