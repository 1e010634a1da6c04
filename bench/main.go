// Command bench is the repo's benchmark: six named workloads, end-to-end
// and per-layer metrics, and a traced pass that says which layer owns the
// wall clock. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all)")
	seed := fs.Uint64("seed", 1, "derives every scenario seed")
	seconds := fs.Float64("seconds", 10, "host seconds of timed ops per workload (at least 3 ops run)")
	ops := fs.Int("ops", 0, "run exactly this many timed ops per workload instead of filling -seconds")
	traceFlag := fs.String("trace", "1", "after the untraced ops, repeat ops with the tracing decorator and run the layer probes (0 to skip)")
	out := fs.String("out", "bench/out", "directory for results.json and trace-<workload>.json")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	compare := fs.Bool("compare", false, "compare two results.json files given as arguments and exit")
	selfcheck := fs.Bool("selfcheck", false, "run the suite twice and fail if any end-to-end metric differs by more than its bound")
	update := fs.String("update-expected", "", "regenerate the expected guest outputs into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *update != "" {
		return updateExpected(*update)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two results.json files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	tracing, err := strconv.ParseBool(*traceFlag)
	if err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		return err
	}
	if *ops < 0 || *seconds <= 0 {
		return fmt.Errorf("-ops must not be negative and -seconds must be positive")
	}
	o := options{seed: *seed, seconds: *seconds, ops: *ops, trace: tracing}
	if *selfcheck {
		return runSelfcheck(*names, o, *out)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	s, err := runSuite(selected, o, *out)
	if err != nil {
		return err
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	// The contract's result line: one JSON object per workload, last.
	for _, r := range s.Results {
		line, err := resultLine(r, tracing)
		if err != nil {
			return fmt.Errorf("%s: %w", r.Workload, err)
		}
		fmt.Println(line)
	}
	for _, r := range s.Results {
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed a correctness check", r.Workload, r.Failed, r.Ops)
		}
	}
	return nil
}

// runSelfcheck measures the same commit twice, each time in a process of
// its own (what one run leaves on the heap or in npb's image cache must not
// flatter the next), and fails if any end-to-end metric differs between the
// two sets by more than its own bound.
func runSelfcheck(names string, o options, outDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var sets [2]*suite
	for i := range sets {
		dir := filepath.Join(outDir, fmt.Sprintf("selfcheck-%d", i+1))
		cmd := exec.Command(exe, "-workload", names, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-ops", fmt.Sprint(o.ops), "-trace", fmt.Sprint(o.trace), "-out", dir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("selfcheck run %d: %w", i+1, err)
		}
		if sets[i], err = loadSuite(filepath.Join(dir, "results.json")); err != nil {
			return err
		}
	}
	if !report(os.Stdout, sets[0], sets[1], true) {
		return fmt.Errorf("selfcheck: two runs of the same commit disagree beyond the benchmark's own bounds")
	}
	return nil
}

// selectWorkloads resolves -workload, rejecting unknown names by listing
// the valid ones.
func selectWorkloads(names string) ([]workload, error) {
	if names == "" {
		return workloads, nil
	}
	var sel []workload
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, w := range workloads {
			if w.name == name {
				sel = append(sel, w)
				found = true
			}
		}
		if !found {
			var valid []string
			for _, w := range workloads {
				valid = append(valid, w.name)
			}
			return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(valid, ", "))
		}
	}
	return sel, nil
}

// suite is what results.json holds.
type suite struct {
	Host    hostInfo  `json:"host"`
	Seed    uint64    `json:"seed"`
	Results []*result `json:"results"`
	// Rows repeats every metric as (workload, metric, unit, value, ops).
	Rows []row `json:"rows"`
}

type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Kind     string  `json:"kind"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	Ops      int     `json:"ops"`
}

func host() hostInfo {
	h := hostInfo{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// runSuite runs the probes and the selected workloads, prints every metric
// by name with its unit, and writes results.json and the trace files.
func runSuite(selected []workload, o options, outDir string) (*suite, error) {
	s := &suite{Host: host(), Seed: o.seed}
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s; seed %d\n", s.Host.CPU, s.Host.NumCPU, s.Host.GOMAXPROCS, s.Host.Go, o.seed)
	var probes map[string]float64
	if o.trace {
		// The probes are workload-independent; they run once, up front, so
		// that kernel.overhead_frac can be derived inside the workload.
		var err error
		if probes, err = runProbes(o.seconds / 50); err != nil {
			return nil, err
		}
	}
	for _, w := range selected {
		r, err := runWorkload(w, o, probes)
		if err != nil {
			return nil, err
		}
		s.Results = append(s.Results, r)
	}
	for _, r := range s.Results {
		fmt.Printf("\n%s: %d ops, %d failed, sim_fingerprint %s\n", r.Workload, r.Ops, r.Failed, r.SimFingerprint)
		for _, f := range r.Failures {
			fmt.Printf("  FAILED: %s\n", f)
		}
		emit := func(kind string, defs []metricDef) {
			for _, d := range defs {
				v := r.Metrics[d.Name]
				s.Rows = append(s.Rows, row{r.Workload, d.Name, kind, d.Unit, v, r.Ops})
				if kind == "end_to_end" || v != 0 {
					fmt.Printf("  %-28s %14.6g %s\n", d.Name, v, d.Unit)
				}
			}
		}
		emit("end_to_end", endToEnd)
		if o.trace {
			emit("per_layer", perLayer)
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(outDir, "results.json"), s, true); err != nil {
		return nil, err
	}
	for _, r := range s.Results {
		if r.spans == nil {
			continue
		}
		tf := struct {
			Workload string             `json:"workload"`
			Totals   map[string]float64 `json:"totals_s"`
			Spans    []span             `json:"spans"`
		}{r.Workload, spanTotals(r.spans), r.spans}
		if err := writeJSON(filepath.Join(outDir, "trace-"+r.Workload+".json"), tf, false); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// writeJSON writes v to path: indented for the results a person reads,
// compact for a trace of a few hundred thousand spans.
func writeJSON(path string, v interface{}, indent bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if indent {
		enc.SetIndent("", " ")
	}
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// resultLine renders one workload's result as the driver reads it: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one.
func resultLine(r *result, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Ops, r.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	return string(b), err
}
