// Command hdcbench regenerates the paper's evaluation: every table and
// figure has a corresponding experiment that prints the same rows/series.
//
// Usage:
//
//	hdcbench -exp fig1        # emulation slowdowns (Figure 1)
//	hdcbench -exp fig345      # instructions between migration points
//	hdcbench -exp fig6789     # migration-point overhead
//	hdcbench -exp tab1        # symbol-alignment cost (Table 1)
//	hdcbench -exp fig10       # stack-transformation latency
//	hdcbench -exp fig11       # migration vs serialization traces
//	hdcbench -exp fig12       # sustained-workload scheduling study
//	hdcbench -exp fig13       # periodic-workload scheduling study
//	hdcbench -exp chaos       # fault injection: correctness under loss/crash
//	hdcbench -exp ckpt        # checkpoint interval: overhead vs work lost
//	hdcbench -exp detector    # failure-detector heartbeat-period sweep
//	hdcbench -exp fuzz        # differential fuzzing sweep (programs/sec)
//	hdcbench -exp rack        # N-node rack-scale scheduling study
//	hdcbench -exp member-scaling  # SWIM traffic/state/latency sweep over rack sizes
//	hdcbench -exp partition   # network-partition split-brain study
//	hdcbench -exp topology    # fat-tree oversubscription study
//	hdcbench -exp fleet       # open-loop traffic, staged x86→ARM rollout
//	hdcbench -exp storm       # chaos under open-loop traffic, graceful degradation
//	hdcbench -exp all
//
// The rack experiment takes -rack-nodes N (default 4) to size the ensemble
// and -engine seq|par to select the cluster time engine (par exploits
// sharing-group parallelism; deterministic, epoch-grained scheduling). Any
// other -engine value is rejected before anything runs.
//
// -topo flat|fattree selects the interconnect fabric for the experiments
// that honour it (rack, member-scaling); -racks and -oversub shape the fat
// tree. The topology experiment sweeps oversubscription itself and writes
// its rows to -json when given — results/topology.json is recorded this way.
//
// The chaos experiment takes -fault-seed, -drop-prob and -crash-at to vary
// the injected fault plans (all plans are deterministic in the seed).
//
// The detector experiment takes -fault-seed and -hb-fracs, a comma list of
// heartbeat periods as fractions of each benchmark's fault-free runtime.
//
// The fuzz experiment takes -fuzz-seed, -fuzz-budget and -fuzz-max; it
// fails if any divergence could not be reduced and archived.
//
// The member-scaling experiment sweeps rack sizes under the SWIM detector
// (-fault-seed varies the streams; -scale quick shrinks the grid) and writes
// its rows to -json when given — results/membership-scaling.json is recorded
// this way. The partition experiment runs every seeded bipartition scenario
// on both engines and enforces the split-brain invariants; it also honours
// -json.
//
// The fleet experiment offers seeded open-loop traffic (jobs arrive at
// simulated instants whether or not capacity is free) and rolls the fleet
// from all-x86 to all-ARM in SLO-gated waves. -arrivals is a comma list of
// arrival processes (poisson, diurnal, bursty; empty runs all three), -rate
// the offered load in jobs/sec and -slo the per-job latency target in
// seconds (0 keeps the scale defaults). Every wave runs under both time
// engines and must produce bit-identical SLO reports; it honours -json —
// results/fleet-rollout.json is recorded this way.
//
// The storm experiment runs the open-loop stream under a seeded continuous
// chaos process (correlated rack failures, gray-fail nodes, node churn) with
// the health-driven graceful-degradation control loop engaged. It reuses
// -rate and -slo for the offered load, -fault-seed for the chaos streams and
// honours -json — results/storm.json is recorded this way. -storm-mttf and
// -storm-mttr override the node-churn means in seconds; they must be given
// together (a failure rate without a repair rate is not a process).
//
// -scale quick|default|full selects the parameter grid (full is the paper's
// grid and takes tens of minutes).
//
// -cpuprofile and -memprofile write host profiles of the simulator itself
// over whatever experiments ran (go tool pprof reads them); both files are
// created before the first experiment starts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"heterodc/internal/exp"
	"heterodc/internal/hostprof"
	"heterodc/internal/trace"
	"heterodc/internal/traffic"
)

// writeJSON records experiment rows as an indented JSON array; empty path
// means "print only".
func writeJSON(path string, rows any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// parseFracs parses a comma-separated list of heartbeat-period fractions.
// Empty means "use the experiment's default sweep"; every listed fraction
// must be a positive number below 1 (a period at or beyond the benchmark's
// runtime could never expire a lease before the job exits).
func parseFracs(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("-hb-fracs: bad fraction %q: %v", part, err)
		}
		if f <= 0 || f >= 1 {
			return nil, fmt.Errorf("-hb-fracs: fraction %g out of range (0, 1): the heartbeat period must be a positive fraction of the runtime", f)
		}
		out = append(out, f)
	}
	return out, nil
}

// fleetOptions validates the fleet traffic flags. rateSet/sloSet report
// whether the user passed the flag at all: an explicit nonsensical value is
// rejected with an actionable error, while an untouched flag defers to the
// scale's default.
func fleetOptions(arrivals string, rateSet bool, rate float64, sloSet bool, slo float64) (exp.FleetOptions, error) {
	var opts exp.FleetOptions
	if arrivals != "" {
		for _, part := range strings.Split(arrivals, ",") {
			k, err := traffic.ParseKind(part)
			if err != nil {
				return exp.FleetOptions{}, fmt.Errorf("-arrivals: %v", err)
			}
			opts.Arrivals = append(opts.Arrivals, k)
		}
	}
	if rateSet {
		if !(rate > 0) || math.IsInf(rate, 0) {
			return exp.FleetOptions{}, fmt.Errorf("-rate: offered load %g jobs/sec is not a positive finite rate", rate)
		}
		opts.Rate = rate
	}
	if sloSet {
		if !(slo > 0) || math.IsInf(slo, 0) {
			return exp.FleetOptions{}, fmt.Errorf("-slo: latency target %g s is not a positive finite duration", slo)
		}
		opts.SLO = traffic.SLO{LatencyTargetSec: slo, BudgetFrac: 0.10}
	}
	return opts, nil
}

// stormOptions validates the storm study's flag set. The set booleans report
// whether the user passed each flag at all (untouched flags defer to the
// scale defaults), and the node-churn overrides must come as a pair: a
// failure rate without a repair rate (or vice versa) is not a renewal
// process, so half a pair is rejected rather than silently mixed with a
// default from a different scale.
func stormOptions(seed int64, rateSet bool, rate float64, sloSet bool, slo float64,
	mttfSet bool, mttf float64, mttrSet bool, mttr float64) (exp.StormOptions, error) {
	opts := exp.StormOptions{Seed: seed}
	if rateSet {
		if !(rate > 0) || math.IsInf(rate, 0) {
			return exp.StormOptions{}, fmt.Errorf("-rate: offered load %g jobs/sec is not a positive finite rate", rate)
		}
		opts.Rate = rate
	}
	if sloSet {
		if !(slo > 0) || math.IsInf(slo, 0) {
			return exp.StormOptions{}, fmt.Errorf("-slo: latency target %g s is not a positive finite duration", slo)
		}
		opts.SLO = traffic.SLO{LatencyTargetSec: slo, BudgetFrac: 0.10}
	}
	if mttfSet != mttrSet {
		return exp.StormOptions{}, fmt.Errorf("-storm-mttf and -storm-mttr must be set together (the node-churn process needs both a failure and a repair mean)")
	}
	if mttfSet {
		if !(mttf > 0) || math.IsInf(mttf, 0) {
			return exp.StormOptions{}, fmt.Errorf("-storm-mttf: mean time to failure %g s is not a positive finite duration", mttf)
		}
		if !(mttr > 0) || math.IsInf(mttr, 0) {
			return exp.StormOptions{}, fmt.Errorf("-storm-mttr: mean time to repair %g s is not a positive finite duration", mttr)
		}
		if mttr >= mttf {
			return exp.StormOptions{}, fmt.Errorf("-storm-mttr %g s is not below -storm-mttf %g s: nodes would spend most of the storm dead (pick MTTR << MTTF)", mttr, mttf)
		}
		opts.MTTF, opts.MTTR = mttf, mttr
	}
	return opts, nil
}

func main() {
	expName := flag.String("exp", "all", "experiment: fig1|fig345|fig6789|tab1|fig10|fig11|fig12|fig13|ablation|rack|chaos|ckpt|detector|fuzz|member-scaling|partition|topology|fleet|storm|all")
	scale := flag.String("scale", "default", "quick|default|full")
	faultSeed := flag.Int64("fault-seed", 7, "chaos: fault-plan seed")
	dropProb := flag.Float64("drop-prob", 0.02, "chaos: baseline message-loss probability")
	crashAt := flag.Float64("crash-at", 0.35, "chaos: node-1 crash time as a fraction of the fault-free runtime")
	fuzzSeed := flag.Int64("fuzz-seed", 1, "fuzz: first generator seed")
	fuzzBudget := flag.Duration("fuzz-budget", 0, "fuzz: wall-clock budget (0: scale default)")
	fuzzMax := flag.Int("fuzz-max", 0, "fuzz: stop after this many programs (0: budget only)")
	rackNodes := flag.Int("rack-nodes", 4, "rack: machine count (half x86, half ARM in the mixed setups)")
	engine := flag.String("engine", "seq", "cluster time engine: seq|par (experiments that honour it)")
	hbFracs := flag.String("hb-fracs", "", "detector: comma list of heartbeat periods as runtime fractions (empty: default sweep)")
	jsonPath := flag.String("json", "", "member-scaling/partition/topology: also write the result rows as JSON to this file")
	topoKind := flag.String("topo", "flat", "interconnect fabric: flat|fattree (experiments that honour it)")
	racks := flag.Int("racks", 0, "fattree: rack count (0: default)")
	oversub := flag.Float64("oversub", 0, "fattree: ToR uplink oversubscription ratio (0: default)")
	arrivals := flag.String("arrivals", "", "fleet: comma list of arrival processes (poisson|diurnal|bursty; empty: all three)")
	rate := flag.Float64("rate", 0, "fleet/storm: offered arrival rate in jobs/sec (0: scale default)")
	slo := flag.Float64("slo", 0, "fleet/storm: per-job latency target in seconds (0: scale default)")
	stormMTTF := flag.Float64("storm-mttf", 0, "storm: node-churn mean time to failure in seconds (0: scale default; needs -storm-mttr)")
	stormMTTR := flag.Float64("storm-mttr", 0, "storm: node-churn mean time to repair in seconds (0: scale default; needs -storm-mttf)")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile of the simulator to this file")
	memProfile := flag.String("memprofile", "", "write a host allocation profile of the simulator to this file at exit")
	flag.Parse()

	rateSet, sloSet, mttfSet, mttrSet := false, false, false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "rate":
			rateSet = true
		case "slo":
			sloSet = true
		case "storm-mttf":
			mttfSet = true
		case "storm-mttr":
			mttrSet = true
		}
	})

	fracs, err := parseFracs(*hbFracs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fleetOpts, err := fleetOptions(*arrivals, rateSet, *rate, sloSet, *slo)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stormOpts, err := stormOptions(*faultSeed, rateSet, *rate, sloSet, *slo,
		mttfSet, *stormMTTF, mttrSet, *stormMTTR)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if err := exp.UseEngine(nil, *engine); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := exp.Config{
		W: os.Stdout, RackNodes: *rackNodes, Engine: *engine,
		Topo: *topoKind, Racks: *racks, Oversub: *oversub,
	}
	switch *scale {
	case "quick":
		cfg.Scale = exp.Quick
	case "default":
		cfg.Scale = exp.Default
	case "full":
		cfg.Scale = exp.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	stopProfiles, err := hostprof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// exit finishes the profiles first: a failed study is still worth one.
	exit := func(code int) {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code == 0 {
				code = 1
			}
		}
		if code != 0 {
			os.Exit(code)
		}
	}

	// Every experiment registers its name here so an unrecognised -exp can
	// list what exists instead of silently running nothing and exiting 0.
	var expNames []string
	matched := false
	run := func(name string, f func() error) {
		expNames = append(expNames, name)
		if *expName != "all" && *expName != name {
			return
		}
		matched = true
		fmt.Printf("\n===== %s =====\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			exit(1)
		}
	}
	defer func() {
		if *expName != "all" && !matched {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (valid: %s, or all)\n",
				*expName, strings.Join(expNames, ", "))
			exit(2)
		}
		exit(0)
	}()

	run("fig1", func() error {
		r, err := exp.Fig1(cfg)
		if err != nil {
			return err
		}
		r.Print(cfg)
		if err := r.ShapeHolds(); err != nil {
			fmt.Printf("SHAPE WARNING: %v\n", err)
		} else {
			fmt.Println("shape check: OK (emulation 1-4 orders of magnitude; x86-on-ARM far worse)")
		}
		return nil
	})

	run("fig345", func() error {
		rs, err := exp.Fig345(cfg)
		if err != nil {
			return err
		}
		for _, r := range rs {
			r.Print(cfg)
		}
		return nil
	})

	run("fig6789", func() error {
		rows, err := exp.Fig6789(cfg)
		if err != nil {
			return err
		}
		if err := exp.Fig6789ShapeHolds(rows); err != nil {
			fmt.Printf("SHAPE WARNING: %v\n", err)
		} else {
			fmt.Println("shape check: OK (migration-point overhead small, mostly <5%)")
		}
		return nil
	})

	run("tab1", func() error {
		rows, err := exp.Table1(cfg)
		if err != nil {
			return err
		}
		if err := exp.Table1ShapeHolds(rows); err != nil {
			fmt.Printf("SHAPE WARNING: %v\n", err)
		} else {
			fmt.Println("shape check: OK (alignment costs ~1% or less)")
		}
		return nil
	})

	run("fig10", func() error {
		rs, err := exp.Fig10(cfg)
		if err != nil {
			return err
		}
		if err := exp.Fig10ShapeHolds(rs); err != nil {
			fmt.Printf("SHAPE WARNING: %v\n", err)
		} else {
			fmt.Println("shape check: OK (x86 < ~400µs, ARM ~2x)")
		}
		return nil
	})

	run("fig11", func() error {
		r, err := exp.Fig11(cfg)
		if err != nil {
			return err
		}
		r.PrintTraces(cfg, 40)
		if err := r.ShapeHolds(); err != nil {
			fmt.Printf("SHAPE WARNING: %v\n", err)
		} else {
			fmt.Println("shape check: OK (managed ~2x native end-to-end; native resumes immediately)")
		}
		return nil
	})

	run("fig12", func() error {
		sets, err := exp.Fig12(cfg)
		if err != nil {
			return err
		}
		s := exp.SummarizeFig12(sets)
		fmt.Println("\nFigure 12 summary (vs static x86 pair):")
		for pol, save := range s.AvgEnergySavingPct {
			fmt.Printf("  %-22s avg energy saving %5.1f%% (max %5.1f%%), makespan ratio %.2fx\n",
				pol, save, s.MaxEnergySavingPct[pol], s.AvgMakespanRatio[pol])
		}
		if err := exp.Fig12ShapeHolds(sets); err != nil {
			fmt.Printf("SHAPE WARNING: %v\n", err)
		} else {
			fmt.Println("shape check: OK (dynamic policies trade makespan for energy)")
		}
		return nil
	})

	run("ablation", func() error {
		if _, err := exp.AblationPointPlacement(cfg); err != nil {
			return err
		}
		_, err := exp.AblationDSMMode(cfg)
		return err
	})

	run("rack", func() error {
		_, err := exp.RackScale(cfg)
		return err
	})

	run("chaos", func() error {
		rows, err := exp.Chaos(cfg, exp.ChaosOptions{
			Seed: *faultSeed, DropProb: *dropProb, CrashFrac: *crashAt,
		})
		if err != nil {
			return err
		}
		bad := 0
		for _, r := range rows {
			if !r.ExitOK || !r.OutputMatch {
				bad++
			}
		}
		if bad > 0 {
			return fmt.Errorf("%d/%d runs lost correctness under faults", bad, len(rows))
		}
		fmt.Println("shape check: OK (every run exits cleanly with baseline-identical output)")
		return nil
	})

	run("ckpt", func() error {
		res, err := exp.Ckpt(cfg, exp.CkptOptions{Seed: *faultSeed})
		if err != nil {
			return err
		}
		bad := 0
		for _, r := range res.Overhead {
			if !r.OutputMatch {
				bad++
			}
		}
		for _, r := range res.Recovery {
			if !r.OutputMatch || r.Restores != 1 {
				bad++
			}
		}
		if bad > 0 {
			return fmt.Errorf("%d checkpoint runs lost correctness or never restored", bad)
		}
		fmt.Println("shape check: OK (capture invisible to output; every crash recovered from checkpoint)")
		return nil
	})

	run("detector", func() error {
		rows, err := exp.Detector(cfg, exp.DetectorOptions{Seed: *faultSeed, PeriodFracs: fracs})
		if err != nil {
			return err
		}
		bad, refuted := 0, 0
		var dropped int
		for _, r := range rows {
			if !r.ExitOK || !r.OutputMatch || r.Stranded != 0 || r.StaleUnfenced != 0 {
				bad++
			}
			if r.FalseSuspicions > 0 {
				refuted++
			}
			dropped += r.TraceDropped
		}
		if dropped > 0 {
			fmt.Printf("trace: %d events dropped across runs (bounded rings overflowed; logs above are incomplete)\n", dropped)
		}
		if bad > 0 {
			return fmt.Errorf("%d/%d detector runs stranded a job, leaked a stale message or lost correctness", bad, len(rows))
		}
		if refuted == 0 {
			return fmt.Errorf("no transient outage was ever refuted: the false-positive path went unexercised")
		}
		fmt.Println("shape check: OK (every crash detected by silence; false positives refuted by rejoin; no stranded jobs)")
		return nil
	})

	run("fuzz", func() error {
		res, err := exp.Fuzz(cfg, exp.FuzzOptions{
			Seed: *fuzzSeed, Budget: *fuzzBudget, MaxPrograms: *fuzzMax,
		})
		if err != nil {
			return err
		}
		if res.Unreduced > 0 {
			return fmt.Errorf("%d divergences could not be reduced and archived", res.Unreduced)
		}
		if res.Divergences > 0 {
			return fmt.Errorf("%d divergences found (reduced repros: %v)", res.Divergences, res.Repros)
		}
		fmt.Printf("shape check: OK (%d programs, %.1f/s, all five modes byte-identical)\n",
			res.Programs, res.ProgramsPerSec)
		return nil
	})

	run("member-scaling", func() error {
		rows, err := exp.MemberScale(cfg, exp.MemberScaleOptions{Seed: *faultSeed})
		if err != nil {
			return err
		}
		if err := exp.MemberScaleShapeHolds(rows); err != nil {
			return err
		}
		if err := writeJSON(*jsonPath, rows); err != nil {
			return err
		}
		fmt.Println("shape check: OK (SWIM traffic flat and state sub-quadratic; detection under the lease baseline's 8 ms; no false deaths)")
		return nil
	})

	run("partition", func() error {
		rows, err := exp.Partition(cfg, exp.PartitionOptions{Seed: *faultSeed})
		if err != nil {
			return err
		}
		if err := exp.PartitionInvariantsHold(rows); err != nil {
			return err
		}
		if err := writeJSON(*jsonPath, rows); err != nil {
			return err
		}
		fmt.Println("shape check: OK (no split-brain restore or quorumless verdict; views reconverge on both engines)")
		return nil
	})

	run("topology", func() error {
		rows, err := exp.Topology(cfg, exp.TopologyOptions{Seed: *faultSeed})
		if err != nil {
			return err
		}
		if err := exp.TopologyShapeHolds(rows); err != nil {
			return err
		}
		if err := writeJSON(*jsonPath, rows); err != nil {
			return err
		}
		fmt.Println("shape check: OK (cross-rack costs grow with oversubscription, in-rack costs flat; engines byte-identical)")
		return nil
	})

	run("fleet", func() error {
		series, err := exp.Fleet(cfg, fleetOpts)
		if err != nil {
			return err
		}
		if err := exp.FleetInvariantsHold(series); err != nil {
			return err
		}
		if err := writeJSON(*jsonPath, series); err != nil {
			return err
		}
		gated := 0
		for _, s := range series {
			if !s.RolledOut {
				gated++
				fmt.Printf("rollout gated: %s halted at wave %d (violation rate %.1f%% over budget %.1f%%)\n",
					s.Arrivals, len(s.Waves), s.Waves[len(s.Waves)-1].ViolationRate*100, s.BudgetFrac*100)
			}
		}
		if gated == 0 {
			fmt.Println("shape check: OK (every rollout reached 100% ARM within budget; engines byte-identical per wave)")
		} else {
			fmt.Println("shape check: OK (gating engaged; no wave advanced while violating; engines byte-identical per wave)")
		}
		return nil
	})

	run("storm", func() error {
		res, err := exp.Storm(cfg, stormOpts)
		if err != nil {
			return err
		}
		if err := exp.StormInvariantsHold(res); err != nil {
			return err
		}
		if err := writeJSON(*jsonPath, res); err != nil {
			return err
		}
		fmt.Println("shape check: OK (SLO degraded gracefully under chaos and recovered post-heal; no checkpointed job lost; engines byte-identical)")
		return nil
	})

	run("fig13", func() error {
		sets, err := exp.Fig13(cfg)
		if err != nil {
			return err
		}
		var savings, edp []float64
		for _, fs := range sets {
			savings = append(savings, (1-fs.Dynamic.EnergyTotal/fs.Static.EnergyTotal)*100)
			edp = append(edp, (1-fs.Dynamic.EDP/fs.Static.EDP)*100)
		}
		fmt.Printf("\nFigure 13 summary: avg energy saving %.1f%%, avg EDP reduction %.1f%%\n",
			trace.Mean(savings), trace.Mean(edp))
		if err := exp.Fig13ShapeHolds(sets); err != nil {
			fmt.Printf("SHAPE WARNING: %v\n", err)
		} else {
			fmt.Println("shape check: OK (migration reduces energy for bursty arrivals)")
		}
		return nil
	})
}
