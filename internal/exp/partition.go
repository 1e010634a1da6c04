package exp

import (
	"bytes"
	"fmt"
	"slices"

	"heterodc/internal/fault"
	"heterodc/internal/kernel"
	"heterodc/internal/link"
	"heterodc/internal/member"
	"heterodc/internal/npb"
	"heterodc/internal/sched"
	"heterodc/internal/topo"
)

// PartitionOptions parameterises the partition study.
type PartitionOptions struct {
	// Seed selects the deterministic fault and rotation streams.
	Seed int64
}

// partitionScenario is one seeded bipartition of the rack.
type partitionScenario struct {
	name   string
	nodes  int
	groupA []int // the isolated side
	oneWay bool
	// spec selects the interconnect fabric (zero Kind = the flat pipe).
	// With a fat tree the partition is expressed physically: cutRack names
	// the rack whose ToR uplink is severed, and the window's Legs are
	// composed from the routes over that uplink rather than from groupA.
	spec    topo.Spec
	cutRack int
	// jobNodes are where the tracked jobs start; jobs on the minority side
	// must be restored onto the majority, jobs on the majority side must
	// never be restored at all.
	jobNodes []int
	// expect: whether the majority reaches death verdicts (false for the
	// quorumless even split) and how many restores the run must execute.
	expectDeaths   bool
	expectRestores int
}

func partitionScenarios() []partitionScenario {
	return []partitionScenario{
		// A 2-node minority is isolated with a job on it: the majority
		// declares both dead and restores the job on its side; the minority
		// suspects everyone but lacks quorum, so it defers — the classic
		// split-brain double-execution is structurally impossible.
		{name: "minority-isolated", nodes: 5, groupA: []int{3, 4},
			jobNodes: []int{3, 0}, expectDeaths: true, expectRestores: 1},
		// An even split leaves NO side with quorum: every verdict defers,
		// nothing is restored anywhere, and healing reconciles both sides
		// back to all-alive with the original incarnations intact.
		{name: "even-split", nodes: 4, groupA: []int{0, 1},
			jobNodes: []int{0, 2}, expectDeaths: false, expectRestores: 0},
		// An asymmetric cut: node 3 can hear the rack but not answer it. The
		// majority declares it dead and restores its job; node 3's own
		// suspicions of everyone defer (it is a minority of one).
		{name: "one-way", nodes: 5, groupA: []int{3}, oneWay: true,
			jobNodes: []int{3}, expectDeaths: true, expectRestores: 1},
		// A physical cut: on a 3-rack fat tree, rack 2's ToR uplink goes
		// dark in both directions. Its two nodes become the minority purely
		// by route reachability — no node list is handed to the injector —
		// and the 4-node majority holds quorum, declares them dead, and
		// restores the stranded job on its side.
		{name: "uplink-cut", nodes: 6, groupA: []int{4, 5},
			spec: topo.FatTree(3, 1), cutRack: 2,
			jobNodes: []int{4, 0}, expectDeaths: true, expectRestores: 1},
	}
}

// scenario lays the bipartition over a rack running img (fault-free
// runtime ref) on jobNodes, with SWIM and checkpointing on.
func (pc partitionScenario) scenario(img *link.Image, ref float64, seed int64) (Scenario, error) {
	// The round period leaves generous slack over the interconnect's loaded
	// latencies: checkpoint and DSM traffic from the jobs must not delay a
	// probe ack past its timeout, or congestion fakes suspicions before the
	// cut even lands.
	period := ref / 20
	start, heal := 0.3*ref, 0.3*ref+20*period
	win := fault.PartitionWindow{GroupA: pc.groupA, Start: start, HealAt: heal, OneWay: pc.oneWay}
	if pc.spec.Kind == topo.KindFatTree {
		// Express the cut as the routes over the dark uplink, not as a
		// node list: exactly the traffic that physically crosses it dies.
		fab, err := topo.Build(pc.spec, pc.nodes)
		if err != nil {
			return Scenario{}, err
		}
		win.Legs = append(fab.Legs(fab.UplinkUp(pc.cutRack)), fab.Legs(fab.UplinkDown(pc.cutRack))...)
	}
	return Scenario{
		Name: pc.name, Arches: sched.RackArches(pc.nodes), Topo: pc.spec,
		Faults: fault.Plan{Seed: seed, Partitions: []fault.PartitionWindow{win}},
		Member: &member.Config{HeartbeatPeriod: period, Seed: seed},
		Ckpt:   kernel.CkptPolicy{EverySeconds: 0.15 * ref},
		// Settle past the heal so divergent views reconcile (rejoins,
		// refutals, gossip convergence). The horizon is absolute and must
		// exceed any completion time, or the final clock is the
		// engine-grained one at which the job loop noticed the last exit.
		Settle: max(heal+30*period, 10*ref),
		Img:    img, JobNodes: pc.jobNodes,
	}, nil
}

// PartitionRow reports one scenario on one engine, with every split-brain
// invariant the experiment enforces.
type PartitionRow struct {
	Scenario string `json:"scenario"`
	Engine   string `json:"engine"`
	Nodes    int    `json:"nodes"`
	ExitOK   bool   `json:"exit_ok"`
	// OutputMatch: every job's final output equals its fault-free baseline.
	OutputMatch bool `json:"output_match"`
	Restores    int  `json:"restores"`
	// MinorityRestores counts restores placed on the isolated side — any
	// non-zero value is a split-brain double execution.
	MinorityRestores int `json:"minority_restores"`
	// MinorityVerdicts counts death verdicts EXECUTED by observers on the
	// quorumless side (must be 0; they may only defer).
	MinorityVerdicts int    `json:"minority_verdicts"`
	Deaths           uint64 `json:"deaths"`
	DeferredVerdicts uint64 `json:"deferred_verdicts"`
	Rejoins          uint64 `json:"rejoins"`
	StaleLossEvents  int    `json:"stale_loss_events"`
	// ViewsConverged: after healing plus a settle window, every observer
	// views every node alive again.
	ViewsConverged bool `json:"views_converged"`
	// OneIncarnationPerJob: each job ended with exactly one live (exited-
	// clean) incarnation; any stranded original or duplicate copy clears it.
	OneIncarnationPerJob bool    `json:"one_incarnation_per_job"`
	Seconds              float64 `json:"seconds"`
}

// partitionRow reads one engine's run of pc into its row.
func partitionRow(pc partitionScenario, engine string, out *Rig, refOut []byte) PartitionRow {
	row := PartitionRow{Scenario: pc.name, Engine: engine, Nodes: pc.nodes, Seconds: out.Cl.Time()}
	st, ms := out.Svc.Stats(), out.Mgr.Stats()
	row.Restores, row.StaleLossEvents = ms.Restores, ms.StaleLossEvents
	row.Deaths, row.DeferredVerdicts, row.Rejoins = st.Deaths, st.DeferredVerdicts, st.Rejoins
	for _, rr := range out.Mgr.Restores() {
		if slices.Contains(pc.groupA, rr.Node) {
			row.MinorityRestores++
		}
	}
	for _, d := range out.Svc.Deaths() {
		if slices.Contains(pc.groupA, d.Observer) {
			row.MinorityVerdicts++
		}
	}
	row.ExitOK, row.OutputMatch, row.OneIncarnationPerJob = true, true, true
	for i, final := range out.Jobs {
		exited, code := final.Exited()
		row.ExitOK = row.ExitOK && exited && code == 0 && final.Err() == nil
		row.OutputMatch = row.OutputMatch && bytes.Equal(final.Output(), refOut)
		// Exactly one live incarnation per job: either the job was never
		// restored or the original was killed by the verdict before its
		// replacement started.
		orig := out.Spawned[i]
		origExited, _ := orig.Exited()
		row.OneIncarnationPerJob = row.OneIncarnationPerJob && (final == orig || origExited && orig.Err() != nil)
	}
	row.ViewsConverged = true
	for i := 0; i < pc.nodes; i++ {
		for t := 0; t < pc.nodes; t++ {
			row.ViewsConverged = row.ViewsConverged && out.Svc.View(i, t) == member.Alive
		}
	}
	return row
}

// Partition runs every seeded bipartition scenario on both engines and
// checks the split-brain invariants: no restore ever lands on a quorumless
// side, quorumless observers only defer, healing reconverges every view
// with exactly one incarnation per job, and both engines produce
// byte-identical runs.
func Partition(cfg Config, opts PartitionOptions) ([]PartitionRow, error) {
	is, err := newBench(npb.IS, npb.ClassS)
	if err != nil {
		return nil, err
	}
	var rows []PartitionRow
	for _, pc := range partitionScenarios() {
		sc, err := pc.scenario(is.img, is.ref.Seconds, opts.Seed)
		if err != nil {
			return nil, err
		}
		outs, agree, err := sc.runBoth()
		if err != nil {
			return nil, fmt.Errorf("exp: partition %w", err)
		}
		for i, engine := range []string{"seq", "par"} {
			row := partitionRow(pc, engine, outs[i], is.ref.Output)
			cfg.printf("partition %-17s %-3s n=%d restores=%d (minority %d) deaths=%d deferred=%d rejoins=%d converged=%v exit=%v match=%v\n",
				pc.name, engine, pc.nodes, row.Restores, row.MinorityRestores,
				row.Deaths, row.DeferredVerdicts, row.Rejoins,
				row.ViewsConverged, row.ExitOK, row.OutputMatch)
			rows = append(rows, row)
		}
		if !agree {
			return nil, fmt.Errorf("exp: partition %s: engines diverge:\nseq %s\npar %s",
				pc.name, outs[0].Fingerprint(), outs[1].Fingerprint())
		}
	}
	return rows, nil
}

// PartitionInvariantsHold asserts the split-brain acceptance criteria over
// the study's rows.
func PartitionInvariantsHold(rows []PartitionRow) error {
	if len(rows) == 0 {
		return fmt.Errorf("partition: no rows")
	}
	expected := map[string]partitionScenario{}
	for _, sc := range partitionScenarios() {
		expected[sc.name] = sc
	}
	for _, r := range rows {
		sc := expected[r.Scenario]
		var why string
		switch {
		case !r.ExitOK || !r.OutputMatch:
			why = fmt.Sprintf("exit=%v match=%v", r.ExitOK, r.OutputMatch)
		case r.MinorityRestores != 0:
			why = fmt.Sprintf("%d restores on the quorumless side (split brain)", r.MinorityRestores)
		case r.MinorityVerdicts != 0:
			why = fmt.Sprintf("%d verdicts executed without quorum", r.MinorityVerdicts)
		case !r.OneIncarnationPerJob:
			why = "a job ended with more than one live incarnation"
		case !r.ViewsConverged:
			why = "views never reconverged after the heal"
		case r.Restores != sc.expectRestores:
			why = fmt.Sprintf("%d restores, want %d", r.Restores, sc.expectRestores)
		case sc.expectDeaths && r.Deaths == 0:
			why = "isolated side never declared dead"
		case !sc.expectDeaths && r.Deaths != 0:
			why = fmt.Sprintf("%d deaths despite no side holding quorum", r.Deaths)
		case r.DeferredVerdicts == 0:
			why = "the quorumless side never deferred a verdict"
		case r.StaleLossEvents != 0:
			why = fmt.Sprintf("%d duplicate loss verdicts reached the manager", r.StaleLossEvents)
		}
		if why != "" {
			return fmt.Errorf("partition %s/%s: %s", r.Scenario, r.Engine, why)
		}
	}
	return nil
}
