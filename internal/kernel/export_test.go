package kernel

import "heterodc/internal/sim"

// AttachUnfed attaches e the way SetEngine did before engines had change
// feeds: the cluster reports nothing to it, so e re-reads every node after
// every action. The engine oracle drives its reference cluster this way.
func (cl *Cluster) AttachUnfed(e sim.Engine) {
	cl.feed.Vouch(false)
	cl.eng = e
	cl.feed = nil
}

// ReportChange is Cluster.changed for tests that re-install a layer's hook
// with a report deliberately left out.
func (cl *Cluster) ReportChange(node int) { cl.changed(node) }

// OwnClock is the clock node's kernel keeps, without a drag the engine has
// not written into it yet (Kernel.now adds that).
func (cl *Cluster) OwnClock(node int) float64 { return cl.Kernels[node].own }

// BuiltCores counts the machine.Cores the cluster's kernels have built.
func (cl *Cluster) BuiltCores() int {
	n := 0
	for _, k := range cl.Kernels {
		n += builtCores(k)
	}
	return n
}

// builtCores counts k's slots that hold a machine.Core.
func builtCores(k *Kernel) int {
	n := 0
	for _, cs := range k.cores {
		if cs.core != nil {
			n++
		}
	}
	return n
}
