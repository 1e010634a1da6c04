package kernel

// Topology wiring: building a cluster whose interconnect routes through a
// rack/spine fabric (internal/topo) instead of the flat pipe.

import (
	"fmt"

	"heterodc/internal/isa"
	"heterodc/internal/msg"
	"heterodc/internal/topo"
)

// A fat-tree fabric is the interconnect's pluggable path model.
var _ msg.PathModel = (*topo.Fabric)(nil)

// ApplyTopology builds the fabric spec describes over the cluster's nodes
// and installs it under the interconnect. A flat spec installs nothing and
// returns (nil, nil): the flat pipe stays byte-for-byte the legacy cost
// model. Call it before UseParallelEngine (the engine reads the lookahead
// floor at configuration time) and before any traffic flows; a fabric with
// unrouteable pairs is rejected — time-bounded uplink cuts belong in a
// fault plan (fault.PartitionWindow.Legs), not the structural topology.
func ApplyTopology(cl *Cluster, spec topo.Spec) (*topo.Fabric, error) {
	fab, err := buildFabric(spec, len(cl.Kernels))
	if err != nil || fab == nil {
		return nil, err
	}
	if err := cl.IC.SetPathModel(fab); err != nil {
		return nil, err
	}
	return fab, nil
}

// buildFabric builds the fabric spec describes over n nodes (nil for a flat
// spec) and rejects one that leaves a pair unrouteable.
func buildFabric(spec topo.Spec, n int) (*topo.Fabric, error) {
	fab, err := topo.Build(spec, n)
	if err != nil || fab == nil {
		return nil, err
	}
	if pairs := fab.UnrouteablePairs(); len(pairs) > 0 {
		return nil, fmt.Errorf("kernel: fabric leaves %d node pairs unrouteable (first %d->%d); use a fault plan for time-bounded cuts",
			len(pairs), pairs[0][0], pairs[0][1])
	}
	return fab, nil
}

// NewClusterTopo builds a cluster of arches joined by the fabric spec
// describes; the returned fabric is nil for a flat spec (the classic
// single-pipe cluster, unchanged). The fabric is installed before the
// interconnect grows to the fleet, so the flat pipe's n*n occupancy table
// is never allocated.
func NewClusterTopo(arches []isa.Arch, cfg msg.Config, spec topo.Spec) (*Cluster, *topo.Fabric, error) {
	fab, err := buildFabric(spec, len(arches))
	if err != nil {
		return nil, nil, err
	}
	ic := msg.New(cfg)
	if fab != nil {
		if err := ic.SetPathModel(fab); err != nil {
			return nil, nil, err
		}
	}
	return newCluster(ic, arches), fab, nil
}
