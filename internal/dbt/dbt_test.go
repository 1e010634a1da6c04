package dbt

import (
	"testing"

	"heterodc/internal/isa"
)

func TestProfileForDirections(t *testing.T) {
	p, err := ProfileFor(isa.ARM64, isa.X86)
	if err != nil || p.Name != "arm-on-x86" {
		t.Fatalf("%v %v", p, err)
	}
	q, err := ProfileFor(isa.X86, isa.ARM64)
	if err != nil || q.Name != "x86-on-arm" {
		t.Fatalf("%v %v", q, err)
	}
	if _, err := ProfileFor(isa.X86, isa.X86); err == nil {
		t.Error("same-ISA emulation profile must not exist")
	}
}

func TestAsymmetry(t *testing.T) {
	a2x := ARMonX86()
	x2a := X86onARM()
	// The paper's Figure 1: x86-on-ARM is dramatically worse.
	if x2a.IntFactor <= a2x.IntFactor || x2a.FPFactor <= 10*a2x.FPFactor {
		t.Errorf("asymmetry too weak: %+v vs %+v", a2x, x2a)
	}
}

// refCost is the emulated per-op cost as the closure the table replaced
// computed it, kept as the reference the table must match entry by entry.
func refCost(host isa.Arch, p Profile, op isa.Op) int64 {
	base := float64(isa.CycleCost(host, op))
	var f float64
	switch op {
	case isa.OpLd, isa.OpSt, isa.OpLdB, isa.OpStB, isa.OpFLd, isa.OpFSt,
		isa.OpPush, isa.OpPop, isa.OpAtomicAdd, isa.OpAtomicCAS:
		f = p.MemFactor
	case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv, isa.OpFNeg,
		isa.OpFSqrt, isa.OpFMov, isa.OpFLdi, isa.OpI2F, isa.OpF2I,
		isa.OpFCmpEq, isa.OpFCmpNe, isa.OpFCmpLt, isa.OpFCmpLe,
		isa.OpFCmpGt, isa.OpFCmpGe:
		f = p.FPFactor
	case isa.OpBr, isa.OpBeqz, isa.OpBnez, isa.OpCall, isa.OpCallR, isa.OpRet:
		f = p.BranchFactor
	case isa.OpSyscall:
		f = p.SyscallFactor
	default:
		f = p.IntFactor
	}
	return max(1, int64(base*f))
}

func TestCostTableClassification(t *testing.T) {
	for _, guest := range isa.Arches {
		host := isa.X86
		if guest == isa.X86 {
			host = isa.ARM64
		}
		d, err := EmulatedDesc(guest, host)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := ProfileFor(guest, host)
		for op, got := range d.Costs {
			if want := refCost(host, p, isa.Op(op)); got != want {
				t.Errorf("%s on %s, %s: table says %d, reference %d", guest, host, isa.Op(op), got, want)
			}
		}
	}
	d, err := EmulatedDesc(isa.X86, isa.ARM64)
	if err != nil {
		t.Fatal(err)
	}
	cost := d.Costs
	// Every cost positive.
	for _, op := range []isa.Op{isa.OpAdd, isa.OpLd, isa.OpFMul, isa.OpBr, isa.OpSyscall, isa.OpNop} {
		if cost[op] < 1 {
			t.Errorf("%s: non-positive emulated cost", op)
		}
	}
	// FP must dominate integer; memory must exceed ALU.
	if cost[isa.OpFMul] <= cost[isa.OpAdd] {
		t.Error("FP emulation not costlier than integer")
	}
	if cost[isa.OpLd] <= cost[isa.OpAdd] {
		t.Error("softmmu memory not costlier than ALU")
	}
	// Emulated cost must exceed native host cost everywhere.
	for _, op := range []isa.Op{isa.OpAdd, isa.OpLd, isa.OpFDiv, isa.OpCall} {
		if cost[op] <= isa.CycleCost(isa.ARM64, op) {
			t.Errorf("%s: emulated cost not above native", op)
		}
	}
}

func TestEmulatedDescHybrid(t *testing.T) {
	d, err := EmulatedDesc(isa.X86, isa.ARM64)
	if err != nil {
		t.Fatal(err)
	}
	host := isa.Describe(isa.ARM64)
	guest := isa.Describe(isa.X86)
	if d.ClockHz != host.ClockHz || d.Cores != host.Cores || d.L1MissPenalty != host.L1MissPenalty {
		t.Error("host timing not applied")
	}
	if d.Arch != isa.X86 || d.SP != guest.SP || d.RetAddrOnStack != guest.RetAddrOnStack {
		t.Error("guest semantics not preserved")
	}
	// The global descriptor must not have been mutated.
	if isa.Describe(isa.X86).ClockHz == host.ClockHz {
		t.Error("EmulatedDesc mutated the shared descriptor")
	}
}

func TestEmulatedDescRejectsSameISA(t *testing.T) {
	if _, err := EmulatedDesc(isa.X86, isa.X86); err == nil {
		t.Error("same-ISA emulated description built")
	}
	if _, err := NewEmulated(isa.ARM64, isa.ARM64); err == nil {
		t.Error("same-ISA emulated cluster built")
	}
}
