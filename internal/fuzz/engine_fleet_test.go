package fuzz

import (
	"testing"

	"heterodc/internal/npb"
	"heterodc/internal/sched"
	"heterodc/internal/topo"
	"heterodc/internal/traffic"
)

// TestEngineDeterminismFleet replays one open-loop fleet workload per
// arrival process on both time engines and demands bit-identical
// observables. Unlike the closed-loop admission rule (which notices a freed
// slot between Step calls and is epoch-grained under "par"), the open-loop
// rule admits and rebalances only in the cluster's timer-event stream, so
// every placement, migration, exit instant and the SLO quantile report must
// match across engines at full float precision.
func TestEngineDeterminismFleet(t *testing.T) {
	for _, kind := range traffic.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			run := func(engine string) *sched.OpenLoopResult {
				src, err := traffic.NewSource(traffic.Spec{
					Kind: kind, Rate: 350, Seed: 31,
				}.WithDefaults())
				if err != nil {
					t.Fatalf("source: %v", err)
				}
				jobs := sched.GenerateJobs(64, 8, []npb.Class{npb.ClassS}, traffic.Spacing(src))
				p := sched.DynamicBalanced()
				cl, models, err := sched.TestbedFor(p, true, topo.FlatSpec())
				if err != nil {
					t.Fatalf("testbed: %v", err)
				}
				if engine == "par" {
					cl.UseParallelEngine(0)
				}
				r := sched.NewRunner(cl, p, models)
				r.RebalanceEvery = 2e-3
				res, err := r.RunOpenLoop(sched.OpenLoop{
					Jobs: jobs,
					SLO:  traffic.SLO{LatencyTargetSec: 0.5, BudgetFrac: 0.2},
				})
				if err != nil {
					t.Fatalf("open-loop (%s): %v", engine, err)
				}
				return res
			}
			seq := run("seq")
			par := run("par")
			if seq.Fingerprint() != par.Fingerprint() {
				t.Errorf("engines diverge:\nseq %s\npar %s", seq.Fingerprint(), par.Fingerprint())
			}
			if seq.Completed != seq.Offered {
				t.Errorf("only %d/%d jobs completed", seq.Completed, seq.Offered)
			}
			if seq.SLO.Summary.Count != seq.Offered {
				t.Errorf("SLO report counted %d samples, want %d", seq.SLO.Summary.Count, seq.Offered)
			}
		})
	}
}
