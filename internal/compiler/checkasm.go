package compiler

import (
	"heterodc/internal/ir"
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
func lowerMigrateCheck(f *ir.Func, d *isa.Desc) *AsmFunc {
	s0 := d.ScratchInt[0]
	s1 := d.ScratchInt[1]
	flagsBase := int64(mem.VDSOBase + sys.VDSOFlagsOff)

	var code []isa.Instr
	e := func(in isa.Instr) { code = append(code, in) }

	// Hot path.
	e(isa.Instr{Op: isa.OpLdi, Rd: s0, Imm: int64(sys.VDSOTidAddr)})
	e(isa.Instr{Op: isa.OpLd, Rd: s0, Rs1: s0}) // tid (per-CPU read)
	e(isa.Instr{Op: isa.OpShlI, Rd: s0, Rs1: s0, Imm: 3})
	e(isa.Instr{Op: isa.OpLdi, Rd: s1, Imm: flagsBase})
	e(isa.Instr{Op: isa.OpAdd, Rd: s1, Rs1: s1, Rs2: s0})
	e(isa.Instr{Op: isa.OpLd, Rd: s1, Rs1: s1}) // request word
	slowIdx := len(code)
	e(isa.Instr{Op: isa.OpBnez, Rs1: s1, Target: 0 /* patched */})
	e(isa.Instr{Op: isa.OpRet})

	// Cold path: frame, then the migration syscall.
	slow := len(code)
	code[slowIdx].Target = int32(slow)
	if d.Arch == isa.X86 {
		e(isa.Instr{Op: isa.OpPush, Rs1: d.FP})
		e(isa.Instr{Op: isa.OpMov, Rd: d.FP, Rs1: d.SP})
	} else {
		e(isa.Instr{Op: isa.OpAddI, Rd: d.SP, Rs1: d.SP, Imm: -16})
		e(isa.Instr{Op: isa.OpSt, Rs1: d.SP, Imm: 0, Rs2: d.FP})
		e(isa.Instr{Op: isa.OpSt, Rs1: d.SP, Imm: 8, Rs2: d.LR})
		e(isa.Instr{Op: isa.OpAddI, Rd: d.FP, Rs1: d.SP, Imm: 0})
	}
	e(isa.Instr{Op: isa.OpLdi, Rd: d.IntArgRegs[0], Imm: sys.SysMigrate})
	e(isa.Instr{Op: isa.OpAddI, Rd: d.IntArgRegs[1], Rs1: s1, Imm: -1})
	e(isa.Instr{Op: isa.OpSyscall, CallSiteID: 1})
	if d.Arch == isa.X86 {
		e(isa.Instr{Op: isa.OpMov, Rd: d.SP, Rs1: d.FP})
		e(isa.Instr{Op: isa.OpPop, Rd: d.FP})
		e(isa.Instr{Op: isa.OpRet})
	} else {
		e(isa.Instr{Op: isa.OpLd, Rd: d.LR, Rs1: d.FP, Imm: 8})
		e(isa.Instr{Op: isa.OpAddI, Rd: d.SP, Rs1: d.FP, Imm: 16})
		e(isa.Instr{Op: isa.OpLd, Rd: d.FP, Rs1: d.FP, Imm: 0})
		e(isa.Instr{Op: isa.OpRet})
	}

	af := &AsmFunc{Name: f.Name, Arch: d.Arch, Code: code}
	for i := range af.Code {
		af.Code[i].Size = isa.EncodedSize(d.Arch, &af.Code[i])
		af.Size += int64(af.Code[i].Size)
	}
	af.Info = &stackmap.FuncInfo{
		Name:      f.Name,
		FrameSize: 0,
		CallSites: map[int]*stackmap.CallSite{1: {ID: 1}},
		NoMigrate: true,
	}
	return af
}
