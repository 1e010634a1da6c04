package exp

import (
	"bytes"
	"fmt"

	"heterodc/internal/ckpt"
	"heterodc/internal/core"
	"heterodc/internal/fault"
	"heterodc/internal/kernel"
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

func partitionScenarios(cfg Config) []partitionScenario {
	s := []partitionScenario{
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
	return s
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

	fingerprint string
}

// runPartitionOnce executes one scenario on one engine and returns the row.
func runPartitionOnce(cfg Config, engine string, sc partitionScenario, seed int64) (PartitionRow, error) {
	row := PartitionRow{Scenario: sc.name, Engine: engine, Nodes: sc.nodes}
	img, err := npb.Build(npb.IS, npb.ClassS, 1)
	if err != nil {
		return row, err
	}
	ref, err := core.Run(img, core.NodeX86)
	if err != nil {
		return row, err
	}

	spec := sc.spec
	if spec.Kind == "" {
		spec = topo.FlatSpec()
	}
	cl, fab, err := kernel.NewClusterTopo(sched.RackArches(sc.nodes), kernel.DefaultInterconnect(), spec)
	if err != nil {
		return row, err
	}
	if err := UseEngine(cl, engine); err != nil {
		return row, err
	}
	// The round period leaves generous slack over the interconnect's loaded
	// latencies: checkpoint and DSM traffic from the jobs must not delay a
	// probe ack past its timeout, or congestion fakes suspicions before the
	// cut even lands.
	period := ref.Seconds / 20
	start, heal := 0.3*ref.Seconds, 0.3*ref.Seconds+20*period
	win := fault.PartitionWindow{GroupA: sc.groupA, Start: start, HealAt: heal, OneWay: sc.oneWay}
	if fab != nil {
		// Express the cut as the routes over the dark uplink, not as a
		// node list: exactly the traffic that physically crosses it dies.
		win.Legs = append(fab.Legs(fab.UplinkUp(sc.cutRack)),
			fab.Legs(fab.UplinkDown(sc.cutRack))...)
	}
	cl.InjectFaults(fault.Plan{
		Seed:       seed,
		Partitions: []fault.PartitionWindow{win},
	})
	svc, err := member.Attach(cl, member.Config{HeartbeatPeriod: period, Seed: seed})
	if err != nil {
		return row, err
	}
	mgr := ckpt.NewManager(cl)

	minority := map[int]bool{}
	for _, n := range sc.groupA {
		minority[n] = true
	}

	var jobs []*kernel.Process
	for _, node := range sc.jobNodes {
		p, err := cl.Spawn(img, node)
		if err != nil {
			return row, err
		}
		mgr.Track(p, img, kernel.CkptPolicy{EverySeconds: 0.15 * ref.Seconds})
		jobs = append(jobs, p)
	}

	// Drive every job's current incarnation to completion.
	for {
		allDone := true
		for _, p := range jobs {
			cur := mgr.Current(p)
			if exited, _ := cur.Exited(); !exited || mgr.Current(p) != cur {
				allDone = false
			}
		}
		if allDone {
			break
		}
		if !cl.Step() {
			return row, fmt.Errorf("cluster drained with jobs outstanding")
		}
	}
	// Settle past the heal so divergent views reconcile (rejoins, refutals,
	// gossip convergence); the membership service keeps the idle fleet live.
	// The horizon is ABSOLUTE: both engines exit the job loop at slightly
	// different clocks (epoch granularity), so a completion-relative settle
	// would diverge. It must also exceed any possible completion time, or
	// the final clock is the engine-dependent completion clock.
	settle := heal + 30*period
	if h := 10 * ref.Seconds; h > settle {
		settle = h
	}
	if cl.Time() > settle {
		return row, fmt.Errorf("jobs outlived the settle horizon (%.6f > %.6f); raise it", cl.Time(), settle)
	}
	cl.Run(settle)

	st := svc.Stats()
	row.Seconds = cl.Time()
	row.Restores = mgr.Stats().Restores
	row.StaleLossEvents = mgr.Stats().StaleLossEvents
	row.Deaths = st.Deaths
	row.DeferredVerdicts = st.DeferredVerdicts
	row.Rejoins = st.Rejoins
	for _, rr := range mgr.Restores() {
		if minority[rr.Node] {
			row.MinorityRestores++
		}
	}
	for _, d := range svc.Deaths() {
		if minority[d.Observer] {
			row.MinorityVerdicts++
		}
	}

	row.ExitOK, row.OutputMatch, row.OneIncarnationPerJob = true, true, true
	for _, p := range jobs {
		final := mgr.Current(p)
		exited, code := final.Exited()
		if !exited || code != 0 || final.Err() != nil {
			row.ExitOK = false
		}
		if !bytes.Equal(final.Output(), ref.Output) {
			row.OutputMatch = false
		}
		// Exactly one live incarnation per job: either the job was never
		// restored (final == original) or the original was killed by the
		// verdict before its replacement started.
		if final != p {
			if origExited, _ := p.Exited(); !origExited || p.Err() == nil {
				row.OneIncarnationPerJob = false
			}
		}
	}
	row.ViewsConverged = true
	for i := 0; i < sc.nodes; i++ {
		for t := 0; t < sc.nodes; t++ {
			if svc.View(i, t) != member.Alive {
				row.ViewsConverged = false
			}
		}
	}

	// The engine-comparison fingerprint: every observable of the run.
	var fp bytes.Buffer
	fmt.Fprintf(&fp, "t=%.12f st=%+v deaths=%v restores=%+v stale=%d", cl.Time(), st,
		svc.Deaths(), mgr.Restores(), mgr.Stats().StaleLossEvents)
	for _, p := range jobs {
		fmt.Fprintf(&fp, " out=%q", mgr.Current(p).Output())
	}
	dump := svc.Dump()
	for i := range dump.Views {
		fmt.Fprintf(&fp, " v%d=%v inc%d=%d", i, dump.Views[i], i, dump.Incarnations[i])
	}
	row.fingerprint = fp.String()
	return row, nil
}

// Partition runs every seeded bipartition scenario on both engines and
// checks the split-brain invariants: no restore ever lands on a quorumless
// side, quorumless observers only defer, healing reconverges every view
// with exactly one incarnation per job, and both engines produce
// byte-identical runs.
func Partition(cfg Config, opts PartitionOptions) ([]PartitionRow, error) {
	var rows []PartitionRow
	for _, sc := range partitionScenarios(cfg) {
		per, agree, err := onBothEngines(func(engine string) (PartitionRow, string, error) {
			row, err := runPartitionOnce(cfg, engine, sc, opts.Seed)
			if err != nil {
				return row, "", fmt.Errorf("exp: partition %s/%s: %w", sc.name, engine, err)
			}
			cfg.printf("partition %-17s %-3s n=%d restores=%d (minority %d) deaths=%d deferred=%d rejoins=%d converged=%v exit=%v match=%v\n",
				sc.name, engine, sc.nodes, row.Restores, row.MinorityRestores,
				row.Deaths, row.DeferredVerdicts, row.Rejoins,
				row.ViewsConverged, row.ExitOK, row.OutputMatch)
			return row, row.fingerprint, nil
		})
		if err != nil {
			return nil, err
		}
		if !agree {
			return nil, fmt.Errorf("exp: partition %s: engines diverge:\nseq %s\npar %s",
				sc.name, per[0].fingerprint, per[1].fingerprint)
		}
		rows = append(rows, per[0], per[1])
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
	for _, sc := range partitionScenarios(Config{}) {
		expected[sc.name] = sc
	}
	for _, r := range rows {
		sc := expected[r.Scenario]
		if !r.ExitOK || !r.OutputMatch {
			return fmt.Errorf("partition %s/%s: exit=%v match=%v", r.Scenario, r.Engine, r.ExitOK, r.OutputMatch)
		}
		if r.MinorityRestores != 0 {
			return fmt.Errorf("partition %s/%s: %d restores on the quorumless side (split brain)",
				r.Scenario, r.Engine, r.MinorityRestores)
		}
		if r.MinorityVerdicts != 0 {
			return fmt.Errorf("partition %s/%s: %d verdicts executed without quorum",
				r.Scenario, r.Engine, r.MinorityVerdicts)
		}
		if !r.OneIncarnationPerJob {
			return fmt.Errorf("partition %s/%s: a job ended with more than one live incarnation",
				r.Scenario, r.Engine)
		}
		if !r.ViewsConverged {
			return fmt.Errorf("partition %s/%s: views never reconverged after the heal", r.Scenario, r.Engine)
		}
		if r.Restores != sc.expectRestores {
			return fmt.Errorf("partition %s/%s: %d restores, want %d",
				r.Scenario, r.Engine, r.Restores, sc.expectRestores)
		}
		if sc.expectDeaths && r.Deaths == 0 {
			return fmt.Errorf("partition %s/%s: isolated side never declared dead", r.Scenario, r.Engine)
		}
		if !sc.expectDeaths && r.Deaths != 0 {
			return fmt.Errorf("partition %s/%s: %d deaths despite no side holding quorum",
				r.Scenario, r.Engine, r.Deaths)
		}
		if r.DeferredVerdicts == 0 {
			return fmt.Errorf("partition %s/%s: the quorumless side never deferred a verdict",
				r.Scenario, r.Engine)
		}
		if r.StaleLossEvents != 0 {
			return fmt.Errorf("partition %s/%s: %d duplicate loss verdicts reached the manager",
				r.Scenario, r.Engine, r.StaleLossEvents)
		}
	}
	return nil
}
