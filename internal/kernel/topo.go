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

// NewClusterTopo builds a cluster of arches joined by the fabric spec
// describes, the one place a fabric goes under a cluster; the returned
// fabric is nil for a flat spec (the interconnect's own pipe). A fabric
// with unrouteable pairs is rejected: time-bounded uplink cuts belong in a
// fault plan (fault.PartitionWindow.Legs), not the structural topology.
// The fabric is installed before the interconnect grows to the fleet, so
// the flat pipe's n*n occupancy table is never allocated.
func NewClusterTopo(arches []isa.Arch, cfg msg.Config, spec topo.Spec) (*Cluster, *topo.Fabric, error) {
	fab, err := topo.Build(spec, len(arches))
	if err != nil {
		return nil, nil, err
	}
	ic := msg.New(cfg)
	if fab != nil {
		if k, first := fab.Unrouteable(); k > 0 {
			return nil, nil, fmt.Errorf("kernel: fabric leaves %d node pairs unrouteable (first %d->%d); use a fault plan for time-bounded cuts",
				k, first[0], first[1])
		}
		if err := ic.SetPathModel(fab); err != nil {
			return nil, nil, err
		}
	}
	return newCluster(ic, len(arches), func(i int) *isa.Desc { return isa.Describe(arches[i]) }), fab, nil
}
