// Package serial implements the PadMig-style migration baseline of the
// paper's Figure 11: a managed-runtime (Java) application that migrates by
// reflectively serializing its whole object state, shipping it, and
// deserializing on the destination — as opposed to the native multi-ISA
// binary, which transforms only its stacks and lets pages follow on demand.
//
// The managed runtime itself is modelled as a per-op interpretation /
// JIT-overhead factor on top of native costs (the paper's Java IS run takes
// ~2x the native time end to end), and migration costs are charged by the
// kernel's serialized-migration mode (see kernel.Process.SetSerializedMigration).
package serial

import (
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/link"
	"heterodc/internal/msg"
)

// JavaFactor is the managed-runtime slowdown over native compiled code.
// Calibrated to Figure 11's 23 s (Java) vs 11 s (native) IS class B runs.
const JavaFactor = 2.1

// ManagedDesc describes arch's machine running the managed runtime: its
// native costs scaled by JavaFactor (GC and JIT warmup folded in).
func ManagedDesc(arch isa.Arch) *isa.Desc {
	d := *isa.Describe(arch)
	d.Costs = d.Costs.Scale(func(isa.Op) float64 { return JavaFactor })
	return &d
}

// NewManagedTestbed builds the two-server testbed with both machines
// running the managed runtime.
func NewManagedTestbed() *kernel.Cluster {
	descs := []*isa.Desc{ManagedDesc(isa.X86), ManagedDesc(isa.ARM64)}
	return kernel.NewClusterSpec(descs, msg.DolphinPXH810())
}

// SpawnManaged loads img as a managed-runtime process with serialization
// migration on node.
func SpawnManaged(cl *kernel.Cluster, img *link.Image, node int) (*kernel.Process, error) {
	p, err := cl.Spawn(img, node)
	if err != nil {
		return nil, err
	}
	p.SetSerializedMigration(true)
	return p, nil
}
