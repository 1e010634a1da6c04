// Package dbt models the KVM/QEMU dynamic-binary-translation baseline of
// the paper's Figure 1: running an application compiled for one ISA on a
// machine of the other ISA through emulation.
//
// Mechanically, an emulated machine executes the guest ISA's code stream
// (semantics are exact) on a core with the HOST's clock frequency, core
// count and cache-miss penalties, while every guest instruction is charged
// a translated-code expansion factor per operation class. The factors are
// calibrated to the asymmetry the paper measures: emulating ARM guests on
// the strong x86 host costs roughly an order of magnitude; emulating x86
// guests on the weak ARM host costs two to four orders of magnitude
// (complex CISC decode plus helper-heavy translated code plus soft-float
// FP), matching Figure 1's 10x-10000x range.
package dbt

import (
	"fmt"

	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/msg"
)

// Profile is one translation cost model: cycle multipliers per operation
// class, applied on top of the HOST's native per-op costs.
type Profile struct {
	Name string
	// IntFactor multiplies simple ALU / move ops.
	IntFactor float64
	// MemFactor multiplies loads/stores (softmmu address translation).
	MemFactor float64
	// FPFactor multiplies floating-point ops.
	FPFactor float64
	// BranchFactor multiplies control transfers (TB chaining / lookup).
	BranchFactor float64
	// SyscallFactor multiplies the trap cost (full VM exit).
	SyscallFactor float64
}

// ARMonX86 models QEMU-style emulation of an ARM guest on the x86 host:
// painful but within an order of magnitude or two.
func ARMonX86() Profile {
	return Profile{
		Name:      "arm-on-x86",
		IntFactor: 9, MemFactor: 14, FPFactor: 22, BranchFactor: 18,
		SyscallFactor: 40,
	}
}

// X86onARM models emulation of an x86 guest on the weak ARM host: CISC
// decode, flag emulation and soft-float blow up per-instruction costs by
// two to four orders of magnitude, as the paper's Figure 1 (bottom) shows.
func X86onARM() Profile {
	return Profile{
		Name:      "x86-on-arm",
		IntFactor: 45, MemFactor: 90, FPFactor: 900, BranchFactor: 120,
		SyscallFactor: 300,
	}
}

// ProfileFor returns the emulation profile for running guest code on host.
func ProfileFor(guest, host isa.Arch) (Profile, error) {
	switch {
	case guest == isa.ARM64 && host == isa.X86:
		return ARMonX86(), nil
	case guest == isa.X86 && host == isa.ARM64:
		return X86onARM(), nil
	}
	return Profile{}, fmt.Errorf("dbt: no profile for %s guest on %s host", guest, host)
}

// factor is p's cycle multiplier for op's operation class.
func (p Profile) factor(op isa.Op) float64 {
	switch op {
	case isa.OpLd, isa.OpSt, isa.OpLdB, isa.OpStB, isa.OpFLd, isa.OpFSt,
		isa.OpPush, isa.OpPop, isa.OpAtomicAdd, isa.OpAtomicCAS:
		return p.MemFactor
	case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv, isa.OpFNeg,
		isa.OpFSqrt, isa.OpFMov, isa.OpFLdi, isa.OpI2F, isa.OpF2I,
		isa.OpFCmpEq, isa.OpFCmpNe, isa.OpFCmpLt, isa.OpFCmpLe,
		isa.OpFCmpGt, isa.OpFCmpGe:
		return p.FPFactor
	case isa.OpBr, isa.OpBeqz, isa.OpBnez, isa.OpCall, isa.OpCallR, isa.OpRet:
		return p.BranchFactor
	case isa.OpSyscall:
		return p.SyscallFactor
	}
	return p.IntFactor
}

// EmulatedDesc builds the hybrid machine description: guest ISA semantics
// and ABI with the host's clock, core count and memory-system penalties,
// and per-op costs of the host's native cost of the equivalent operation
// times the profile's class factor. A same-ISA pair has no profile.
func EmulatedDesc(guest, host isa.Arch) (*isa.Desc, error) {
	p, err := ProfileFor(guest, host)
	if err != nil {
		return nil, err
	}
	g := *isa.Describe(guest)
	h := isa.Describe(host)
	g.ClockHz = h.ClockHz
	g.Cores = h.Cores
	g.L1MissPenalty = h.L1MissPenalty
	g.Costs = h.Costs.Scale(p.factor)
	return &g, nil
}

// NewEmulated builds a one-machine cluster that runs guest-arch code under
// emulation on host.
func NewEmulated(guest, host isa.Arch) (*kernel.Cluster, error) {
	d, err := EmulatedDesc(guest, host)
	if err != nil {
		return nil, err
	}
	return kernel.NewClusterSpec([]*isa.Desc{d}, msg.DolphinPXH810()), nil
}
