// Command hdcrun compiles and runs one workload on the simulated
// heterogeneous-ISA testbed: either a mini-C source file or a named NPB-like
// benchmark. It can force a one-shot container migration mid-run, and
// reports timing, energy and DSM statistics.
//
// Usage:
//
//	hdcrun -bench cg -class A -threads 4 -node x86
//	hdcrun -bench is -class B -migrate-at 0.5 -migrate-to arm
//	hdcrun -src prog.c -node arm
//
// Checkpoint/restore: -ckpt-interval (sim seconds) or -ckpt-points (every N
// migration points) enables periodic checkpointing; a permanent crash
// (-crash-node with -recover-at <= -crash-at) is then survived by restoring
// from the latest image. -ckpt-out saves the final image; -restore resumes a
// saved image (built from the same -bench/-src) instead of starting fresh:
//
//	hdcrun -bench is -class S -ckpt-interval 1e-4 -ckpt-out is.ckpt
//	hdcrun -bench is -class S -restore is.ckpt -node arm
//
// Failure detection: -detector attaches the SWIM-style gossip membership
// service, so crashes are detected through probe silence instead of the
// simulator's omniscient down-flag. It requires fault injection (a crash,
// message chaos or a partition) to have anything to detect; -hb-period sets
// the probe round period and -suspect-timeout the tolerated silence
// (default 3x the period):
//
//	hdcrun -bench is -class S -ckpt-interval 1e-4 \
//	    -crash-node arm -crash-at 5e-4 -detector -hb-period 2e-5
//
// Network partitions: -partition-node isolates one node between
// -partition-at and -partition-heal (heal <= start means never);
// -partition-oneway cuts only the isolated node's outbound legs. Note the
// two-node testbed runs with the documented two-node quorum exception
// (quorum 1), so a partitioned pair WOULD mutually declare each other dead:
// pass -quorum 2 to make both sides defer their verdicts until the heal
// instead (the rack-size quorum semantics are exercised by hdcbench -exp
// partition). -member-out writes the final membership views
// (member.ViewDump JSON) for hdcinspect -member:
//
//	hdcrun -bench is -class S -detector -hb-period 2e-5 -quorum 2 \
//	    -partition-node arm -partition-at 3e-4 -partition-heal 8e-4 \
//	    -member-out views.json
//
// Sharing groups: -groups-out writes the coarsest sharing-group partition
// the parallel engine would have seen during the run — the partition plus
// the per-layer merges (process footprints, in-flight traffic, fabric
// racks) that forced it — as kernel.GroupDump JSON for hdcinspect -groups:
//
//	hdcrun -bench is -class S -migrate-at 0.5 -groups-out groups.json
//
// Fabric: -topo fattree routes the testbed's traffic over a rack/spine
// fabric instead of the flat pipe (-racks and -oversub shape it; on the
// two-node testbed each node becomes its own rack) and prints per-link
// utilisation at exit:
//
//	hdcrun -bench is -class S -migrate-at 0.5 -topo fattree -oversub 4
//
// Open-loop traffic: -arrivals replaces the single workload with a seeded
// open-loop job stream on the testbed — jobs arrive at simulated instants
// drawn from the named process (poisson, diurnal or bursty) whether or not
// capacity is free, and each job's sojourn time is scored against a latency
// SLO. -rate sets the offered load in jobs/sec, -slo the per-job latency
// target in seconds and -jobs the stream length; -class sizes the jobs. The
// stream mode is incompatible with the single-workload flags (-bench, -src,
// -migrate-at, checkpointing, restore, the detector and fault injection):
//
//	hdcrun -arrivals bursty -rate 300 -slo 0.25 -jobs 20 -class S
//
// -cpuprofile and -memprofile write host profiles of the simulator itself
// (go tool pprof reads them); both files are created before the run starts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"heterodc/internal/ckpt"
	"heterodc/internal/core"
	"heterodc/internal/fault"
	"heterodc/internal/hostprof"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/link"
	"heterodc/internal/member"
	"heterodc/internal/npb"
	"heterodc/internal/power"
	"heterodc/internal/sched"
	"heterodc/internal/topo"
	"heterodc/internal/trace"
	"heterodc/internal/traffic"
)

func parseNode(s string) (int, error) {
	switch s {
	case "x86", "0":
		return core.NodeX86, nil
	case "arm", "arm64", "1":
		return core.NodeARM, nil
	}
	return 0, fmt.Errorf("unknown node %q (use x86 or arm)", s)
}

// detectorConfig validates the detector flag set against the rest of the run
// and resolves it to a member.Config. chaos reports whether any fault
// injection is enabled: a detector with nothing to detect is a configuration
// error, not a silent no-op.
func detectorConfig(detector bool, hbPeriod, suspectTimeout float64, quorum int, chaos bool) (member.Config, error) {
	if !detector {
		if hbPeriod != 0 || suspectTimeout != 0 || quorum != 0 {
			return member.Config{}, fmt.Errorf("-hb-period/-suspect-timeout/-quorum need -detector (valid combination: -detector with fault injection, e.g. -detector -hb-period 2e-5 -crash-node arm -crash-at 5e-4)")
		}
		return member.Config{}, nil
	}
	if quorum < 0 {
		return member.Config{}, fmt.Errorf("-quorum must be non-negative (got %d; 0 selects the majority rule)", quorum)
	}
	if !chaos {
		return member.Config{}, fmt.Errorf("-detector needs fault injection to detect anything: add -crash-node, -partition-node, -drop-prob, -dup-prob or -jitter")
	}
	if hbPeriod <= 0 {
		return member.Config{}, fmt.Errorf("-detector needs a positive -hb-period (got %g)", hbPeriod)
	}
	if suspectTimeout < 0 {
		return member.Config{}, fmt.Errorf("-suspect-timeout must be non-negative (got %g; 0 selects 3x the period)", suspectTimeout)
	}
	cfg := member.Config{HeartbeatPeriod: hbPeriod, SuspectTimeout: suspectTimeout, Quorum: quorum}
	if err := cfg.Validate(); err != nil {
		return member.Config{}, err
	}
	return cfg, nil
}

// checkRanges rejects numeric flags outside the ranges they are documented
// for, which the run would otherwise clamp or ignore without a word.
func checkRanges(threads int, migrateAt, dropProb, dupProb, jitter float64) error {
	switch {
	case threads < 1 || threads > npb.MaxThreads:
		return fmt.Errorf("-threads %d is outside 1..%d", threads, npb.MaxThreads)
	case !(migrateAt < 1):
		return fmt.Errorf("-migrate-at %g is not a fraction of the reference runtime below 1 (negative: no migration)", migrateAt)
	case !(dropProb >= 0 && dropProb <= 1):
		return fmt.Errorf("-drop-prob %g is not a probability in [0, 1]", dropProb)
	case !(dupProb >= 0 && dupProb <= 1):
		return fmt.Errorf("-dup-prob %g is not a probability in [0, 1]", dupProb)
	case !(jitter >= 0) || math.IsInf(jitter, 1):
		return fmt.Errorf("-jitter %g is not a non-negative finite latency in seconds", jitter)
	}
	return nil
}

// trafficConfig validates the open-loop traffic flag set and resolves it to
// an arrival spec, an SLO and a stream length. The set booleans report
// whether the user passed each flag at all: explicit nonsense is rejected
// with an actionable error, untouched flags take the defaults below.
// singleWorkload reports that any single-workload flag is in play — the
// stream mode drives its own jobs, so combining the two is a configuration
// error, not a silent override.
func trafficConfig(arrivals string, rateSet bool, rate float64, sloSet bool, slo float64,
	jobsSet bool, jobs int, singleWorkload bool) (traffic.Spec, traffic.SLO, int, error) {
	fail := func(err error) (traffic.Spec, traffic.SLO, int, error) {
		return traffic.Spec{}, traffic.SLO{}, 0, err
	}
	if arrivals == "" {
		if rateSet || sloSet || jobsSet {
			return fail(fmt.Errorf("-rate/-slo/-jobs need -arrivals (open-loop stream mode: -arrivals poisson|diurnal|bursty)"))
		}
		return traffic.Spec{}, traffic.SLO{}, 0, nil
	}
	kind, err := traffic.ParseKind(arrivals)
	if err != nil {
		return fail(fmt.Errorf("-arrivals: %v", err))
	}
	if singleWorkload {
		return fail(fmt.Errorf("-arrivals drives its own job stream; it cannot be combined with -bench/-src, -migrate-at, checkpointing, -restore, -detector or fault injection (valid stream combination: -arrivals poisson|diurnal|bursty with -rate, -slo, -jobs, -class and -topo only)"))
	}
	if !rateSet {
		rate = 250
	} else if !(rate > 0) || math.IsInf(rate, 0) {
		return fail(fmt.Errorf("-rate: offered load %g jobs/sec is not a positive finite rate", rate))
	}
	if !sloSet {
		slo = 0.25
	} else if !(slo > 0) || math.IsInf(slo, 0) {
		return fail(fmt.Errorf("-slo: latency target %g s is not a positive finite duration", slo))
	}
	if !jobsSet {
		jobs = 16
	} else if jobs <= 0 {
		return fail(fmt.Errorf("-jobs: stream length %d is not positive", jobs))
	}
	spec := traffic.Spec{Kind: kind, Rate: rate, Seed: 11}.WithDefaults()
	if err := spec.Validate(); err != nil {
		return fail(err)
	}
	return spec, traffic.SLO{LatencyTargetSec: slo, BudgetFrac: 0.10}, jobs, nil
}

// testbed builds the x86 + ARM testbed joined by the -topo fabric; the
// fabric is nil for the flat pipe.
func testbed(kind string, racks int, oversub float64) (*kernel.Cluster, *topo.Fabric, error) {
	if (kind == "" || kind == topo.KindFlat) && (racks != 0 || oversub != 0) {
		return nil, nil, fmt.Errorf("-racks/-oversub need -topo fattree")
	}
	return kernel.NewClusterTopo([]isa.Arch{isa.X86, isa.ARM64}, kernel.DefaultInterconnect(),
		topo.Spec{Kind: kind, Racks: racks, Oversub: oversub})
}

// runOpenLoop executes the open-loop stream mode on the two-node testbed
// under the dynamic balanced policy and prints the SLO scorecard.
func runOpenLoop(spec traffic.Spec, slo traffic.SLO, jobsN int, class npb.Class,
	topoKind string, topoRacks int, topoOversub float64) error {
	src, err := traffic.NewSource(spec)
	if err != nil {
		return err
	}
	jobs := sched.GenerateJobs(42, jobsN, []npb.Class{class}, traffic.Spacing(src))

	cl, _, err := testbed(topoKind, topoRacks, topoOversub)
	if err != nil {
		return err
	}
	r := sched.NewRunner(cl, sched.DynamicBalanced(), power.DefaultModels(cl, false))
	res, err := r.RunOpenLoop(sched.OpenLoop{Jobs: jobs, SLO: slo})
	if err != nil {
		return err
	}

	s := res.SLO
	fmt.Printf("arrivals       : %s at %g jobs/s (seed %d)\n", spec.Kind, spec.Rate, spec.Seed)
	fmt.Printf("jobs           : %d offered, %d completed\n", res.Offered, res.Completed)
	fmt.Printf("horizon        : %.6f s (%.1f jobs/s completed)\n", res.Makespan, res.ThroughputJobsPerSec)
	fmt.Printf("sojourn        : p50 %.6fs  p95 %.6fs  p99 %.6fs  mean %.6fs  max %.6fs\n",
		s.P50Sec, s.P95Sec, s.P99Sec, s.MeanSec, s.MaxSec)
	health := "HEALTHY"
	if !s.Healthy {
		health = "VIOLATING"
	}
	fmt.Printf("slo            : target %gs budget %.1f%% -> %d violations (%.1f%%), budget remaining %.0f%%, %s\n",
		s.TargetSec, s.BudgetFrac*100, s.Violations, s.ViolationRate*100, s.BudgetRemaining*100, health)
	fmt.Printf("energy         : %.2f J (EDP %.4f)\n", res.EnergyTotal, res.EDP)
	fmt.Printf("migrations     : %d\n", res.Migrations)
	return nil
}

func main() {
	bench := flag.String("bench", "", "benchmark name (ep|is|cg|ft|bt|sp|mg|bzip2smp|verus)")
	class := flag.String("class", "A", "problem class (S|A|B|C)")
	threads := flag.Int("threads", 1, "worker threads (1..16)")
	srcPath := flag.String("src", "", "mini-C source file to compile and run instead of -bench")
	nodeStr := flag.String("node", "x86", "start node (x86|arm)")
	migrateAt := flag.Float64("migrate-at", -1, "fraction of the reference runtime at which to migrate the container (0 <= f < 1; negative: no migration)")
	migrateTo := flag.String("migrate-to", "arm", "migration target (x86|arm)")
	showOut := flag.Bool("output", true, "print program output")
	faultSeed := flag.Int64("fault-seed", 0, "fault-plan seed (plans are deterministic in it)")
	dropProb := flag.Float64("drop-prob", 0, "per-message-leg loss probability (0..1)")
	dupProb := flag.Float64("dup-prob", 0, "message duplication probability (0..1)")
	jitter := flag.Float64("jitter", 0, "max extra one-way latency in seconds (>= 0)")
	crashNode := flag.String("crash-node", "", "node to crash mid-run (x86|arm), empty for none")
	crashAt := flag.Float64("crash-at", 0, "crash time in simulated seconds")
	recoverAt := flag.Float64("recover-at", 0, "recovery time in simulated seconds (<= crash-at means never)")
	showFaults := flag.Bool("show-faults", false, "print the fault/retry event log")
	ckptInterval := flag.Float64("ckpt-interval", 0, "checkpoint every this many simulated seconds (0 disables)")
	ckptPoints := flag.Uint64("ckpt-points", 0, "checkpoint every N migration points (0 disables)")
	ckptOut := flag.String("ckpt-out", "", "write the latest checkpoint image to this file at exit")
	restorePath := flag.String("restore", "", "restore this checkpoint image instead of starting fresh")
	detector := flag.Bool("detector", false, "attach the SWIM failure detector (crashes detected by probe silence, not the oracle)")
	hbPeriod := flag.Float64("hb-period", 0, "detector: probe round period in simulated seconds")
	suspectTimeout := flag.Float64("suspect-timeout", 0, "detector: silence tolerated before suspicion (0: 3x the period)")
	quorum := flag.Int("quorum", 0, "detector: verdict quorum override (0: majority, with the two-node exception)")
	partitionNode := flag.String("partition-node", "", "node to isolate behind a network partition (x86|arm), empty for none")
	partitionAt := flag.Float64("partition-at", 0, "partition start in simulated seconds")
	partitionHeal := flag.Float64("partition-heal", 0, "partition heal time in simulated seconds (<= start means never)")
	partitionOneWay := flag.Bool("partition-oneway", false, "cut only the isolated node's outbound legs")
	memberOut := flag.String("member-out", "", "write the final membership view dump as JSON to this file (needs -detector)")
	groupsOut := flag.String("groups-out", "", "write the coarsest sharing-group partition the run produced (kernel.GroupDump JSON, for hdcinspect -groups)")
	topoKind := flag.String("topo", "flat", "interconnect fabric: flat (the testbed's single pipe) or fattree")
	topoRacks := flag.Int("racks", 0, "fattree: rack count (0: default)")
	topoOversub := flag.Float64("oversub", 0, "fattree: ToR uplink oversubscription ratio (0: default)")
	arrivals := flag.String("arrivals", "", "open-loop stream mode: arrival process (poisson|diurnal|bursty)")
	rate := flag.Float64("rate", 0, "stream: offered arrival rate in jobs/sec (default 250)")
	sloTarget := flag.Float64("slo", 0, "stream: per-job latency target in seconds (default 0.25)")
	jobsN := flag.Int("jobs", 0, "stream: number of offered jobs (default 16)")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile of the simulator to this file")
	memProfile := flag.String("memprofile", "", "write a host allocation profile of the simulator to this file at exit")
	flag.Parse()
	if err := checkRanges(*threads, *migrateAt, *dropProb, *dupProb, *jitter); err != nil {
		fmt.Fprintln(os.Stderr, "hdcrun:", err)
		os.Exit(2)
	}

	stop, err := hostprof.Start(*cpuProfile, *memProfile)
	fatal(err)
	stopProfiles = stop
	defer func() { fatal(stopProfiles()) }()

	rateSet, sloSet, jobsSet := false, false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "rate":
			rateSet = true
		case "slo":
			sloSet = true
		case "jobs":
			jobsSet = true
		}
	})
	singleWorkload := *bench != "" || *srcPath != "" || *migrateAt >= 0 ||
		*ckptInterval != 0 || *ckptPoints != 0 || *ckptOut != "" || *restorePath != "" ||
		*detector || *crashNode != "" || *partitionNode != "" ||
		*dropProb > 0 || *dupProb > 0 || *jitter > 0
	olSpec, olSLO, olJobs, err := trafficConfig(*arrivals, rateSet, *rate, sloSet, *sloTarget,
		jobsSet, *jobsN, singleWorkload)
	fatal(err)
	if olSpec.Kind != "" {
		if len(*class) != 1 {
			fatal(fmt.Errorf("bad class %q", *class))
		}
		fatal(runOpenLoop(olSpec, olSLO, olJobs, npb.Class((*class)[0]),
			*topoKind, *topoRacks, *topoOversub))
		return
	}

	if *memberOut != "" && !*detector {
		fatal(fmt.Errorf("-member-out needs -detector"))
	}

	node, err := parseNode(*nodeStr)
	fatal(err)
	target, err := parseNode(*migrateTo)
	fatal(err)

	var img *link.Image
	switch {
	case *srcPath != "":
		src, err := os.ReadFile(*srcPath)
		fatal(err)
		img, err = core.Build(*srcPath, core.Src(*srcPath, string(src)))
		fatal(err)
	case *bench != "":
		if len(*class) != 1 {
			fatal(fmt.Errorf("bad class %q", *class))
		}
		img, err = npb.Build(npb.Bench(*bench), npb.Class((*class)[0]), *threads)
		fatal(err)
	default:
		fmt.Fprintln(os.Stderr, "need -bench or -src")
		os.Exit(2)
	}

	// Reference run for migration positioning.
	var refSeconds float64
	if *migrateAt >= 0 {
		ref, err := core.Run(img, node)
		fatal(err)
		refSeconds = ref.Seconds
	}

	cl, fab, err := testbed(*topoKind, *topoRacks, *topoOversub)
	fatal(err)
	plan := fault.Plan{Seed: *faultSeed, DropProb: *dropProb, DupProb: *dupProb, JitterSec: *jitter}
	if *crashNode != "" {
		cn, err := parseNode(*crashNode)
		fatal(err)
		plan.Crashes = []fault.Crash{{Node: cn, At: *crashAt, RecoverAt: *recoverAt}}
	}
	if *partitionNode != "" {
		pn, err := parseNode(*partitionNode)
		fatal(err)
		plan.Partitions = []fault.PartitionWindow{{
			GroupA: []int{pn}, Start: *partitionAt, HealAt: *partitionHeal, OneWay: *partitionOneWay,
		}}
	}
	chaos := *dropProb > 0 || *dupProb > 0 || *jitter > 0 || *crashNode != "" || *partitionNode != ""
	mcfg, err := detectorConfig(*detector, *hbPeriod, *suspectTimeout, *quorum, chaos)
	fatal(err)
	pol := kernel.CkptPolicy{EveryPoints: *ckptPoints, EverySeconds: *ckptInterval}
	ckptOn := pol.EveryPoints > 0 || pol.EverySeconds > 0
	log := trace.NewEventLog(10000)
	if chaos {
		cl.InjectFaults(plan)
	}
	tracing := chaos || ckptOn || *detector
	if tracing {
		cl.SetTracer(log)
	}
	var svc *member.Service
	if *detector {
		svc, err = member.Attach(cl, mcfg)
		fatal(err)
	}
	var mgr *ckpt.Manager
	if ckptOn {
		mgr = ckpt.NewManager(cl)
	} else if *ckptOut != "" {
		fatal(fmt.Errorf("-ckpt-out needs -ckpt-interval or -ckpt-points"))
	}
	meter := power.NewMeter(cl, power.DefaultModels(cl, false))
	migrations := 0
	cl.OnMigration = func(ev kernel.MigrationEvent) {
		migrations++
		fmt.Printf("migration: t=%.6fs tid=%d %d->%d in %s (%d frames, %d live values, %.0fµs)\n",
			ev.Time, ev.Tid, ev.From, ev.To, ev.FuncName,
			ev.Stats.Frames, ev.Stats.LiveValues, ev.XformSeconds*1e6)
	}
	var p *kernel.Process
	if *restorePath != "" {
		snap, rerr := ckpt.ReadFile(*restorePath)
		fatal(rerr)
		p, err = cl.RestoreProcess(img, snap, node)
		fatal(err)
		fmt.Printf("restored %q pid %d (captured at %.6fs, %d pages, %d threads) onto node %d\n",
			snap.ImgName, p.Pid, snap.When, len(snap.Pages), len(snap.Threads), node)
	} else {
		p, err = cl.Spawn(img, node)
		fatal(err)
	}
	if mgr != nil {
		mgr.Track(p, img, pol)
	}

	// The coarsest partition the run produced is the interesting one: it
	// shows which layers (footprints, in-flight traffic, fabric racks) were
	// folding nodes together when sharing peaked.
	var coarsest *kernel.GroupDump
	sampleGroups := func() {
		if *groupsOut == "" {
			return
		}
		if gs := cl.Groups(); coarsest == nil || len(gs) < len(coarsest.Groups) {
			groups, merges := cl.GroupReport()
			coarsest = &kernel.GroupDump{Time: cl.Time(), Nodes: len(cl.Kernels),
				Groups: groups, Merges: merges}
		}
	}
	job := core.Job{P: p, Migrate: *migrateAt >= 0, At: refSeconds * *migrateAt, To: target}
	finals, err := core.Drive(cl, mgr, []core.Job{job}, sampleGroups)
	fatal(err)
	cur := finals[0]
	fatal(cur.Err())

	if *groupsOut != "" {
		sampleGroups()
		data, jerr := json.MarshalIndent(coarsest, "", "  ")
		fatal(jerr)
		fatal(os.WriteFile(*groupsOut, append(data, '\n'), 0o644))
		fmt.Printf("wrote sharing-group dump to %s\n", *groupsOut)
	}

	if *ckptOut != "" {
		data := mgr.LatestImage(p)
		if data == nil {
			fatal(fmt.Errorf("no checkpoint was ever taken; nothing to write to %s", *ckptOut))
		}
		fatal(os.WriteFile(*ckptOut, data, 0o644))
		fmt.Printf("wrote latest checkpoint image (%d bytes) to %s\n", len(data), *ckptOut)
	}

	if *showOut {
		os.Stdout.Write(cur.Output())
	}
	_, code := cur.Exited()
	fmt.Printf("\nexit code      : %d\n", code)
	fmt.Printf("simulated time : %.6f s\n", cur.ExitTime())
	fmt.Printf("migrations     : %d\n", migrations)
	for i, k := range cl.Kernels {
		e := meter.EnergyCPU()[i]
		fmt.Printf("node %d (%s): %.3e instrs, %.2f J CPU energy, %d pages in / %d out\n",
			i, k.Arch, float64(k.InstrsRetired), e, k.PagesIn, k.PagesOut)
		if k.MigrationsAborted > 0 {
			fmt.Printf("node %d: %d migrations aborted and rolled back\n", i, k.MigrationsAborted)
		}
	}
	if mgr != nil {
		st := mgr.Stats()
		fmt.Printf("checkpoints    : %d images (%d bytes), %.0fµs capture, %d restores, %.0fµs work replayed\n",
			st.ImagesWritten, st.BytesWritten, st.CaptureSeconds*1e6,
			st.Restores, st.WorkReplayedSeconds*1e6)
	}
	if fab != nil {
		fmt.Printf("fabric         : %d racks x %d nodes, oversub %g:1, min latency %.2fµs\n",
			fab.Racks(), fab.PerRack(), fab.Spec().Oversub, fab.MinLatency()*1e6)
		for _, ls := range fab.LinkStats() {
			if ls.Msgs == 0 {
				continue
			}
			fmt.Printf("fabric %-14s: %6d msgs %9d B busy %8.1fµs queued %5d (%8.1fµs waiting)\n",
				ls.Name, ls.Msgs, ls.Bytes, ls.BusySec*1e6, ls.Queued, ls.QueueSec*1e6)
		}
	}
	if chaos {
		s := cl.IC.Stats()
		fmt.Printf("faults         : %d dropped, %d retries, %d duplicated, %d exhausted, %d crash stalls, %d partition drops, %d partition stalls\n",
			s.Dropped, s.Retries, s.Duplicated, s.Exhausted, s.CrashStalls, s.PartitionDrops, s.PartitionStalls)
	}
	if svc != nil {
		st := svc.Stats()
		fenced, stale := cl.FenceStats()
		fmt.Printf("detector       : %d heartbeats sent, %d suspicions, %d deaths, %d readmissions (%d false positives), %d msgs fenced (%d stale unfenced)\n",
			st.HeartbeatsSent, st.Suspicions, st.Deaths, st.Readmissions, st.FalseSuspicions, fenced, stale)
		for _, d := range svc.Deaths() {
			fmt.Printf("detector       : node %d incarnation %d declared dead at %.6fs by observer %d\n",
				d.Node, d.Inc, d.At, d.Observer)
		}
		if *memberOut != "" {
			data, jerr := json.MarshalIndent(svc.Dump(), "", "  ")
			fatal(jerr)
			fatal(os.WriteFile(*memberOut, append(data, '\n'), 0o644))
			fmt.Printf("wrote membership view dump to %s\n", *memberOut)
		}
	}
	if tracing {
		fmt.Printf("trace          : %d events kept, %d dropped (ring full)\n", len(log.Events()), log.Dropped())
	}
	if *showFaults && tracing {
		fmt.Print(log.String())
	}
}

// stopProfiles finishes the host profiles. A failing run finishes them too:
// a CPU profile that is never stopped is an empty file.
var stopProfiles = func() error { return nil }

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdcrun:", err)
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "hdcrun:", perr)
		}
		os.Exit(1)
	}
}
