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
// Every flag lands in the one exp.Config that each experiment reads.
// -fault-seed seeds every experiment that draws fault, rotation or storm
// streams (chaos, ckpt, detector, member-scaling, partition, topology,
// storm). A flag value that an experiment would ignore or silently replace
// fails before anything runs, with exit status 2 and a message naming the
// flag. So does a flag the selected experiment does not read at all (its
// exp.Study.Reads; -exp all takes every flag) and, under -check, every flag
// that lands in exp.Config, -scale included.
//
// The rack experiment takes -rack-nodes N (default 4; below 2 is rejected)
// to size the ensemble. Every experiment that drives a cluster, bar the
// figure reproductions, runs both time engines and fails when they disagree.
//
// -topo flat|fattree selects the interconnect fabric for the experiments
// that honour it (rack, member-scaling, fleet); an unknown kind is rejected.
// -racks and -oversub shape the fat tree and are rejected without -topo
// fattree. The topology experiment sweeps oversubscription itself.
//
// The chaos experiment takes -drop-prob and -crash-at, each in (0, 1), to
// vary the injected fault plans (all plans are deterministic in the seed).
//
// The detector experiment takes -hb-fracs, a comma list of heartbeat
// periods as fractions of each benchmark's fault-free runtime.
//
// The fuzz experiment takes -fuzz-seed, -fuzz-budget and -fuzz-max; it
// fails if any divergence could not be reduced and archived.
//
// The member-scaling experiment sweeps rack sizes under the SWIM detector
// (-scale quick shrinks the grid). The partition experiment enforces the
// split-brain invariants.
//
// The fleet experiment offers seeded open-loop traffic (jobs arrive at
// simulated instants whether or not capacity is free) and rolls the fleet
// from all-x86 to all-ARM in SLO-gated waves. -arrivals is a comma list of
// arrival processes (poisson, diurnal, bursty; empty runs all three), -rate
// the offered load in jobs/sec and -slo the per-job latency target in
// seconds; either, when given, must be positive and finite (left out, the
// scale's default holds).
//
// The storm experiment runs the open-loop stream under a seeded continuous
// chaos process (correlated rack failures, gray-fail nodes, node churn) with
// the health-driven graceful-degradation control loop engaged. It reuses
// -rate and -slo for the offered load (results/storm.json is -fault-seed
// 13). -storm-mttf and -storm-mttr override the node-churn means in
// seconds; they must be given together (a failure rate without a repair
// rate is not a process).
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
	"heterodc/internal/topo"
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

// command is one hdcbench command line: what to run, and the config every
// study reads.
type command struct {
	exp, jsonPath, cpuProfile, memProfile string
	check                                 bool
	cfg                                   exp.Config
}

// studyNames lists the study table in its order.
func studyNames() []string {
	var names []string
	for _, s := range exp.Studies {
		names = append(names, s.Name)
	}
	return names
}

// positiveFinite reports whether x is a usable rate or duration.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 0) }

// parseArgs parses args on fs into a command. The study flags write
// straight into the config's fields, and a value that a study would reject,
// ignore or silently replace is an error naming the flag. An untouched -rate
// or -slo stays zero and defers to the scale's default; the node-churn
// overrides must come as a pair, since a failure rate without a repair rate
// (or vice versa) is not a renewal process.
func parseArgs(fs *flag.FlagSet, args []string) (*command, error) {
	c := &command{}
	cfg := &c.cfg
	fs.StringVar(&c.exp, "exp", "all", "experiment: "+strings.Join(studyNames(), "|")+"|all")
	fs.BoolVar(&c.check, "check", false, "regenerate the committed artefacts under results/ (all, or the ones -exp produced) and fail on any byte of drift")
	scale := fs.String("scale", "default", "quick|default|full")
	fs.Int64Var(&cfg.Seed, "fault-seed", 7, "seed of every study's fault, rotation and storm streams")
	fs.Float64Var(&cfg.DropProb, "drop-prob", 0.02, "chaos: baseline message-loss probability, in (0, 1)")
	fs.Float64Var(&cfg.CrashFrac, "crash-at", 0.35, "chaos: node-1 crash time as a fraction of the fault-free runtime, in (0, 1)")
	fs.Int64Var(&cfg.FuzzSeed, "fuzz-seed", 1, "fuzz: first generator seed")
	fs.DurationVar(&cfg.FuzzBudget, "fuzz-budget", 0, "fuzz: wall-clock budget (0: scale default)")
	fs.IntVar(&cfg.FuzzMax, "fuzz-max", 0, "fuzz: stop after this many programs (0: budget only)")
	fs.IntVar(&cfg.RackNodes, "rack-nodes", 4, "rack: machine count, at least 2 (half x86, half ARM in the mixed setups)")
	hbFracs := fs.String("hb-fracs", "", "detector: comma list of heartbeat periods as runtime fractions (empty: default sweep)")
	fs.StringVar(&c.jsonPath, "json", "", "also write the study's result rows as JSON to this file")
	fs.StringVar(&cfg.Topo.Kind, "topo", "flat", "interconnect fabric: flat|fattree (experiments that honour it)")
	fs.IntVar(&cfg.Topo.Racks, "racks", 0, "fattree: rack count (0: default)")
	fs.Float64Var(&cfg.Topo.Oversub, "oversub", 0, "fattree: ToR uplink oversubscription ratio (0: default)")
	arrivals := fs.String("arrivals", "", "fleet: comma list of arrival processes (poisson|diurnal|bursty; empty: all three)")
	fs.Float64Var(&cfg.Rate, "rate", 0, "fleet/storm: offered arrival rate in jobs/sec (0: scale default)")
	fs.Float64Var(&cfg.SLO, "slo", 0, "fleet/storm: per-job latency target in seconds (0: scale default)")
	fs.Float64Var(&cfg.MTTF, "storm-mttf", 0, "storm: node-churn mean time to failure in seconds (0: scale default; needs -storm-mttr)")
	fs.Float64Var(&cfg.MTTR, "storm-mttr", 0, "storm: node-churn mean time to repair in seconds (0: scale default; needs -storm-mttf)")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a host CPU profile of the simulator to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a host allocation profile of the simulator to this file at exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var err error
	if cfg.PeriodFracs, err = parseFracs(*hbFracs); err != nil {
		return nil, err
	}
	if *arrivals != "" {
		for _, part := range strings.Split(*arrivals, ",") {
			k, err := traffic.ParseKind(part)
			if err != nil {
				return nil, fmt.Errorf("-arrivals: %v", err)
			}
			cfg.Arrivals = append(cfg.Arrivals, k)
		}
	}
	if set["rate"] && !positiveFinite(cfg.Rate) {
		return nil, fmt.Errorf("-rate: offered load %g jobs/sec is not a positive finite rate", cfg.Rate)
	}
	if set["slo"] && !positiveFinite(cfg.SLO) {
		return nil, fmt.Errorf("-slo: latency target %g s is not a positive finite duration", cfg.SLO)
	}
	if set["storm-mttf"] != set["storm-mttr"] {
		return nil, fmt.Errorf("-storm-mttf and -storm-mttr must be set together (the node-churn process needs both a failure and a repair mean)")
	}
	if set["storm-mttf"] {
		if !positiveFinite(cfg.MTTF) {
			return nil, fmt.Errorf("-storm-mttf: mean time to failure %g s is not a positive finite duration", cfg.MTTF)
		}
		if !positiveFinite(cfg.MTTR) {
			return nil, fmt.Errorf("-storm-mttr: mean time to repair %g s is not a positive finite duration", cfg.MTTR)
		}
		if cfg.MTTR >= cfg.MTTF {
			return nil, fmt.Errorf("-storm-mttr %g s is not below -storm-mttf %g s: nodes would spend most of the storm dead (pick MTTR << MTTF)", cfg.MTTR, cfg.MTTF)
		}
	}
	var known bool
	if cfg.Scale, known = map[string]exp.Scale{"quick": exp.Quick, "default": exp.Default, "full": exp.Full}[*scale]; !known {
		return nil, fmt.Errorf("unknown scale %q", *scale)
	}
	if (cfg.Topo.Kind == "" || cfg.Topo.Kind == topo.KindFlat) && (cfg.Topo.Racks != 0 || cfg.Topo.Oversub != 0) {
		return nil, fmt.Errorf("-racks/-oversub need -topo fattree")
	}
	if err := cfg.Topo.Validate(); err != nil {
		return nil, err
	}
	if !(cfg.DropProb > 0 && cfg.DropProb < 1) {
		return nil, fmt.Errorf("-drop-prob: baseline loss probability %g is outside (0, 1): the chaos plans need some loss and some delivery", cfg.DropProb)
	}
	if !(cfg.CrashFrac > 0 && cfg.CrashFrac < 1) {
		return nil, fmt.Errorf("-crash-at: %g is outside (0, 1): the crash lands at that fraction of the fault-free runtime", cfg.CrashFrac)
	}
	if cfg.RackNodes < 2 {
		return nil, fmt.Errorf("-rack-nodes: %d is below 2: a rack needs an x86 and an ARM machine", cfg.RackNodes)
	}
	return c, unread(fs, c)
}

// studyFlags maps every flag that sets a study's Config field, bar -scale,
// to that field (exp.Study.Reads).
var studyFlags = map[string]string{
	"fault-seed": "Seed", "drop-prob": "DropProb", "crash-at": "CrashFrac",
	"fuzz-seed": "FuzzSeed", "fuzz-budget": "FuzzBudget", "fuzz-max": "FuzzMax",
	"rack-nodes": "RackNodes", "hb-fracs": "PeriodFracs",
	"topo": "Topo", "racks": "Topo", "oversub": "Topo",
	"arrivals": "Arrivals", "rate": "Rate", "slo": "SLO",
	"storm-mttf": "MTTF", "storm-mttr": "MTTR",
}

// unread rejects the first explicitly set study flag (in flag-name order)
// that c's run would ignore: one whose field the selected study does not
// read, or, under -check, any study flag at all and -scale, since -check
// regenerates every artefact with the config exp.Manifest records for it.
// -exp all runs every study, so it takes every flag.
func unread(fs *flag.FlagSet, c *command) error {
	i := slices.IndexFunc(exp.Studies, func(s exp.Study) bool { return s.Name == c.exp })
	var err error
	fs.Visit(func(f *flag.Flag) {
		field, ok := studyFlags[f.Name]
		switch {
		case err != nil:
		case c.check && (ok || f.Name == "scale"):
			err = fmt.Errorf("-%s: -check regenerates each artefact with the config exp.Manifest records for it and would ignore the flag", f.Name)
		case ok && i >= 0 && !slices.Contains(exp.Studies[i].Reads, field):
			err = fmt.Errorf("-%s: experiment %s does not read it", f.Name, c.exp)
		}
	})
	return err
}

// runStudies runs every study of the table that only selects ("all": each
// one) the way cfg.W shows it, records its rows at jsonPath when that is
// set, and returns how many failed. A failed study — an error from its run,
// its shape check or the write — is reported on errw and the rest still run.
func runStudies(studies []exp.Study, only string, cfg exp.Config, jsonPath string, errw io.Writer) (failed int) {
	for _, s := range studies {
		if only != "all" && only != s.Name {
			continue
		}
		rows, err := s.Report(cfg)
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
	c, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	c.cfg.W = os.Stdout

	stopProfiles, err := hostprof.Start(c.cpuProfile, c.memProfile)
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
	if names := studyNames(); c.exp != "all" && !slices.Contains(names, c.exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (valid: %s, or all)\n", c.exp, strings.Join(names, ", "))
		exit(2)
	}
	if c.check {
		if err := exp.CheckArtefacts(os.Stdout, "results", c.exp); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		exit(0)
	}
	if runStudies(exp.Studies, c.exp, c.cfg, c.jsonPath, os.Stderr) > 0 {
		exit(1)
	}
	exit(0)
}
