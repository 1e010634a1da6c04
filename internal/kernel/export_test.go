package kernel

import "heterodc/internal/sim"

// AttachUnfed attaches e the way SetEngine did before engines had change
// feeds: the cluster reports nothing to it, so e re-reads every node after
// every action. The engine oracle drives its reference cluster this way.
func (cl *Cluster) AttachUnfed(e sim.Engine) {
	cl.eng = e
	cl.feed = nil
}

// ReportChange is Cluster.changed for tests that re-install a layer's hook
// with a report deliberately left out.
func (cl *Cluster) ReportChange(node int) { cl.changed(node) }
