package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"heterodc/internal/core"
	"heterodc/internal/isa"
)

// A synthetic workload: op k "allocates" nothing and fails when told to.
func fakeWorkload(failEvery int) workload {
	return workload{name: "fake", setup: func(uint64) (func(*opCtx) error, error) {
		n := 0
		return func(c *opCtx) error {
			n++
			c.note("sched.offered", 3)
			if failEvery > 0 && n%failEvery == 0 {
				return fmt.Errorf("op %d told to fail", n)
			}
			return nil
		}, nil
	}}
}

func TestRunWorkloadBookkeeping(t *testing.T) {
	res, err := runWorkload(fakeWorkload(0), options{seed: 1, ops: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 5 || res.Failed != 0 {
		t.Fatalf("ops %d failed %d, want 5 and 0", res.Ops, res.Failed)
	}
	for _, d := range endToEnd {
		want := 5
		switch d.Name {
		case "setup_s":
			want = setupMaxReps // a set-up that costs nothing is repeated to the cap
		case "live_heap_mb":
			want = 1 // the first op's reading, not a median
		}
		if got := len(res.Samples[d.Name]); got != want {
			t.Errorf("%s: %d samples, want %d", d.Name, got, want)
		}
		if res.Metrics[d.Name] <= 0 && d.Name != "cpu_s" && d.Name != "live_heap_mb" { // an empty op uses no measurable CPU and keeps nothing alive
			t.Errorf("%s = %v, want a positive value", d.Name, res.Metrics[d.Name])
		}
	}
	if got := res.Metrics["wall_s"]; got != median(res.Samples["wall_s"]) {
		t.Errorf("wall_s %v is not the median of its samples %v", got, res.Samples["wall_s"])
	}
	if res.Metrics["sched.offered"] != 3 {
		t.Errorf("per-op counts must not accumulate across ops: sched.offered = %v", res.Metrics["sched.offered"])
	}
	if median([]float64{5, 1, 3}) != 3 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median is wrong")
	}
}

func TestFailedOpsAreCountedNotFatal(t *testing.T) {
	res, err := runWorkload(fakeWorkload(2), options{seed: 1, ops: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Calls: warm-up is 1, timed ops are 2..5, so calls 2 and 4 fail.
	if res.Ops != 4 || res.Failed != 2 || len(res.Samples["wall_s"]) != 2 {
		t.Fatalf("ops %d failed %d samples %d, want 4, 2 and 2", res.Ops, res.Failed, len(res.Samples["wall_s"]))
	}
	line, err := resultLine(res, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, `"correct":false`) || !strings.Contains(line, `"failed":2`) {
		t.Errorf("result line hides the failures: %s", line)
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		seen[n] = true
	}

	var gotW, wantW [][2]string
	for _, w := range bj.Workloads {
		gotW = append(gotW, [2]string{w.Name, w.Why})
	}
	for _, w := range workloads {
		check(w.name, "")
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
		wantW = append(wantW, [2]string{w.name, w.why})
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("workloads differ:\n json   %v\n binary %v", gotW, wantW)
	}

	var gotE, gotL, wantL []metricDef
	for _, m := range bj.EndToEnd {
		gotE = append(gotE, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range bj.PerLayer {
		gotL = append(gotL, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	for _, d := range endToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		check(d.Name, d.Unit)
		wantL = append(wantL, metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	if !reflect.DeepEqual(gotE, endToEnd) {
		t.Errorf("end_to_end differs:\n json   %v\n binary %v", gotE, endToEnd)
	}
	if !reflect.DeepEqual(gotL, wantL) {
		t.Errorf("per_layer differs:\n json   %v\n binary %v", gotL, wantL)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) || !reflect.DeepEqual(bj.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v / paths %v are not this directory's", bj.Command, bj.Paths)
	}
}

// miniFlagship is a 4-node, 2-job miniature of the flagship scenario over
// a ballast short enough for tier-1.
func miniFlagship(t *testing.T) flagshipScenario {
	t.Helper()
	src := strings.Replace(ballastSrc, "i < 1500", "i < 60", 1)
	img, err := core.Build("mini", core.Src("mini.c", src))
	if err != nil {
		t.Fatal(err)
	}
	cl := core.NewSingle(isa.X86)
	p, err := cl.Spawn(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	if code, err := cl.RunProcess(p); err != nil || code != 0 {
		t.Fatalf("reference run: exit %d: %v", code, err)
	}
	return flagshipScenario{racks: 2, perRack: 2, memberSeed: 7, img: img, want: string(p.Output())}
}

// The decorator must be invisible to the simulation: outputs, exit
// instants, quanta and message counters are the same traced and untraced,
// on both engines.
func TestDecoratorIsTransparent(t *testing.T) {
	s := miniFlagship(t)
	for _, eng := range []string{"seq", "par"} {
		plainCtx := newOpCtx(nil)
		plain, err := s.run(plainCtx, eng)
		if err != nil {
			t.Fatal(err)
		}
		tracedCtx := newOpCtx(newTracer(1))
		traced, err := s.run(tracedCtx, eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := plain.agrees(traced); err != nil {
			t.Errorf("%s: traced run diverged: %v", eng, err)
		}
		for _, pair := range [][2]engineTotals{{plainCtx.seq, tracedCtx.seq}, {plainCtx.par, tracedCtx.par}} {
			a, b := pair[0], pair[1]
			if a.quanta != b.quanta || a.instrs != b.instrs || a.simSec != b.simSec {
				t.Errorf("%s: quanta, instructions or simulated time differ: %+v vs %+v", eng, a, b)
			}
		}
		if fingerprint(plainCtx) != fingerprint(tracedCtx) {
			t.Errorf("%s: sim_fingerprint differs traced and untraced", eng)
		}
		lt := layerTimes(tracedCtx.tr, tracedCtx)
		if lt["kernel.quanta"] != float64(tracedCtx.seq.quanta+tracedCtx.par.quanta) {
			t.Errorf("%s: decorator saw %v quanta, cluster ran %d", eng, lt["kernel.quanta"], tracedCtx.seq.quanta+tracedCtx.par.quanta)
		}
	}
}

func TestWrongExpectedOutputFailsTheOp(t *testing.T) {
	s := miniFlagship(t)
	s.want = "not the ballast's output\n"
	w := workload{name: "mini", setup: func(uint64) (func(*opCtx) error, error) {
		return func(c *opCtx) error { return both(c, s.run) }, nil
	}}
	res, err := runWorkload(w, options{seed: 1, ops: 3}, nil)
	if err != nil {
		t.Fatalf("a wrong output must fail ops, not the harness: %v", err)
	}
	if res.Ops != 3 || res.Failed != 3 {
		t.Errorf("ops %d failed %d, want fail_frac 1 (3 of 3)", res.Ops, res.Failed)
	}
}

func TestUnknownWorkloadListsValidOnes(t *testing.T) {
	_, err := selectWorkloads("interp,nope")
	if err == nil || !strings.Contains(err.Error(), "idle_fleet") || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("want an error naming the bad workload and listing the valid ones, got %v", err)
	}
	if sel, err := selectWorkloads("storm,interp"); err != nil || len(sel) != 2 || sel[0].name != "storm" {
		t.Errorf("selection in the order given failed: %v %v", sel, err)
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	tight := []float64{1, 1.01, 0.99, 1}
	wide := []float64{0.8, 1.2, 1, 1.3}
	for _, tc := range []struct {
		a, b   float64
		sa, sb []float64
		want   string
	}{
		{1, 1.05, tight, tight, "ok"},
		{1, 1.2, tight, tight, "regressed"},
		{1, 1.05, wide, tight, "unresolved"},
		{1, 1.3, wide, wide, "unresolved"}, // beyond the bound, but the sample sets overlap
		{1, 2, wide, []float64{2, 2.1, 1.9}, "regressed"},
		{1, 0.5, wide, []float64{0.5, 0.51, 0.49}, "ok"}, // every run of the change beats every run of the base
	} {
		if _, got := verdict(d, tc.a, tc.b, tc.sa, tc.sb); got != tc.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", tc.a, tc.b, got, tc.want)
		}
	}
	up := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	if _, got := verdict(up, 100, 80, tight, tight); got != "regressed" {
		t.Errorf("a higher-is-better metric that fell 20%% is %s, want regressed", got)
	}
}
