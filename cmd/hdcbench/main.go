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
//	hdcbench -check           # is any committed artefact under results/ stale?
//
// Every experiment is one row of exp.Studies: it prints its rows and a
// "shape check: OK (…)" line. A failed check (or run) is reported on
// standard error, the remaining experiments still run, and the exit status
// is 1. -json records the rows of whichever experiment ran.
//
// -check regenerates every committed artefact under results/ in memory, at
// the scale and seed exp.Manifest records for it, byte-compares it with the
// file, prints the first differing line of any that drifted and exits 1;
// -exp <name> narrows it to that experiment's artefacts. Run it from the
// repository root; the whole check takes about six minutes.
//
// The rack experiment takes -rack-nodes N (default 4) to size the ensemble.
// Every experiment that drives a cluster, bar the figure reproductions, runs
// both time engines and fails when they disagree.
//
// -topo flat|fattree selects the interconnect fabric for the experiments
// that honour it (rack, member-scaling, fleet); -racks and -oversub shape
// the fat tree. The topology experiment sweeps oversubscription itself.
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
// (-fault-seed varies the streams; -scale quick shrinks the grid). The
// partition experiment enforces the split-brain invariants.
//
// The fleet experiment offers seeded open-loop traffic (jobs arrive at
// simulated instants whether or not capacity is free) and rolls the fleet
// from all-x86 to all-ARM in SLO-gated waves. -arrivals is a comma list of
// arrival processes (poisson, diurnal, bursty; empty runs all three), -rate
// the offered load in jobs/sec and -slo the per-job latency target in
// seconds (0 keeps the scale defaults).
//
// The storm experiment runs the open-loop stream under a seeded continuous
// chaos process (correlated rack failures, gray-fail nodes, node churn) with
// the health-driven graceful-degradation control loop engaged. It reuses
// -rate and -slo for the offered load and -fault-seed for the chaos streams
// (results/storm.json is seed 13). -storm-mttf and
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
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"heterodc/internal/exp"
	"heterodc/internal/hostprof"
	"heterodc/internal/traffic"
)

// writeJSON records a study's rows as an indented JSON array; empty path
// means "print only".
func writeJSON(w io.Writer, path string, rows any) error {
	if path == "" {
		return nil
	}
	data, err := exp.EncodeRows(rows)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
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

// runStudies runs every study of the table that only selects ("all": each
// one) the way cfg.W shows it, records its rows at jsonPath when that is
// set, and returns how many failed. A failed study — an error from its run,
// its shape check or the write — is reported on errw and the rest still run.
func runStudies(studies []exp.Study, only string, cfg exp.Config, opts exp.Options, jsonPath string, errw io.Writer) (failed int) {
	for _, s := range studies {
		if only != "all" && only != s.Name {
			continue
		}
		rows, err := s.Report(cfg, opts)
		if err == nil {
			err = writeJSON(cfg.W, jsonPath, rows)
		}
		if err != nil {
			fmt.Fprintf(errw, "%s: %v\n", s.Name, err)
			failed++
		}
	}
	return failed
}

func main() {
	var names []string
	for _, s := range exp.Studies {
		names = append(names, s.Name)
	}
	expName := flag.String("exp", "all", "experiment: "+strings.Join(names, "|")+"|all")
	check := flag.Bool("check", false, "regenerate the committed artefacts under results/ (all, or the ones -exp produced) and fail on any byte of drift")
	scale := flag.String("scale", "default", "quick|default|full")
	faultSeed := flag.Int64("fault-seed", 7, "chaos: fault-plan seed")
	dropProb := flag.Float64("drop-prob", 0.02, "chaos: baseline message-loss probability")
	crashAt := flag.Float64("crash-at", 0.35, "chaos: node-1 crash time as a fraction of the fault-free runtime")
	fuzzSeed := flag.Int64("fuzz-seed", 1, "fuzz: first generator seed")
	fuzzBudget := flag.Duration("fuzz-budget", 0, "fuzz: wall-clock budget (0: scale default)")
	fuzzMax := flag.Int("fuzz-max", 0, "fuzz: stop after this many programs (0: budget only)")
	rackNodes := flag.Int("rack-nodes", 4, "rack: machine count (half x86, half ARM in the mixed setups)")
	hbFracs := flag.String("hb-fracs", "", "detector: comma list of heartbeat periods as runtime fractions (empty: default sweep)")
	jsonPath := flag.String("json", "", "also write the study's result rows as JSON to this file")
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

	opts := exp.SeededOptions(*faultSeed)
	opts.Chaos.DropProb, opts.Chaos.CrashFrac = *dropProb, *crashAt
	opts.Fuzz = exp.FuzzOptions{Seed: *fuzzSeed, Budget: *fuzzBudget, MaxPrograms: *fuzzMax}
	var err error
	if opts.Detector.PeriodFracs, err = parseFracs(*hbFracs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if opts.Fleet, err = fleetOptions(*arrivals, rateSet, *rate, sloSet, *slo); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if opts.Storm, err = stormOptions(*faultSeed, rateSet, *rate, sloSet, *slo,
		mttfSet, *stormMTTF, mttrSet, *stormMTTR); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := exp.Config{
		W: os.Stdout, RackNodes: *rackNodes,
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
		os.Exit(code)
	}

	// An unrecognised -exp lists what exists instead of silently running
	// nothing and exiting 0.
	if *expName != "all" && !slices.Contains(names, *expName) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (valid: %s, or all)\n", *expName, strings.Join(names, ", "))
		exit(2)
	}
	if *check {
		if err := exp.CheckArtefacts(os.Stdout, "results", *expName); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		exit(0)
	}
	if runStudies(exp.Studies, *expName, cfg, opts, *jsonPath, os.Stderr) > 0 {
		exit(1)
	}
	exit(0)
}
