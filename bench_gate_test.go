// Package heterodc_bench holds the CI throughput gate over the benchmark
// suite's results (bench/ is the one measurement system; see bench/README.md).
package heterodc_bench

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestEngineBenchGate is the CI throughput gate for the time engines. It
// reads the flagship and idle_fleet rows that
//
//	bash bench/run.sh --workload flagship,idle_fleet --trace 0
//
// wrote to bench/out/results.json and fails if quanta/sec fall more than the
// committed tolerance below the BENCH_engine.json row recorded (by that same
// command) for this GOMAXPROCS — the parallel engine on the flagship (where
// StepNode dominates and the groups must scale), both engines on the idle
// fleet (where finding the next action is the whole cost) — or, on a host
// with at least two cores, if the parallel engine fails to reach 1.5 times
// the sequential engine's flagship throughput in the same run, or falls
// behind it on the idle fleet by more than the recorded rows say (their
// par/seq ratio rounded down to a tenth). Opt-in via
// BENCH_GATE=1 so ordinary `go test ./...` runs — and laptops under load —
// are never gated; CI sets the variable explicitly.
func TestEngineBenchGate(t *testing.T) {
	if os.Getenv("BENCH_GATE") == "" {
		t.Skip("set BENCH_GATE=1 to enforce the engine throughput gate")
	}
	var base struct {
		Command string `json:"command"`
		Gate    struct {
			ToleranceFrac float64 `json:"tolerance_frac"`
		} `json:"gate"`
		Rows []struct {
			Scenario   string  `json:"scenario"`
			Engine     string  `json:"engine"`
			Gomaxprocs int     `json:"gomaxprocs"`
			QuantaPerS float64 `json:"quanta_per_s"`
		} `json:"rows"`
	}
	readJSON(t, "BENCH_engine.json", &base)
	tol := base.Gate.ToleranceFrac
	if tol <= 0 || tol >= 1 {
		t.Fatalf("baseline gate.tolerance_frac %v out of (0,1)", tol)
	}
	var run struct {
		Host struct {
			NumCPU     int `json:"nproc"`
			Gomaxprocs int `json:"gomaxprocs"`
		} `json:"host"`
		Results []struct {
			Workload string             `json:"workload"`
			Failed   int                `json:"failed"`
			Metrics  map[string]float64 `json:"metrics"`
		} `json:"results"`
	}
	const results = "bench/out/results.json"
	if _, err := os.Stat(results); err != nil {
		t.Fatalf("%v: run `%s` first", err, base.Command)
	}
	readJSON(t, results, &run)
	procs := run.Host.Gomaxprocs

	// measured returns what the run recorded for one engine on one scenario.
	measured := func(scenario, engine string) float64 {
		for _, r := range run.Results {
			if r.Workload == scenario {
				if r.Failed > 0 {
					t.Fatalf("%s: %d ops failed their correctness checks", scenario, r.Failed)
				}
				if v := r.Metrics[engine+"_quanta_per_s"]; v > 0 {
					return v
				}
			}
		}
		t.Fatalf("%s has no %s %s_quanta_per_s: run `%s`", results, scenario, engine, base.Command)
		return 0
	}
	// recorded returns the baseline row of one engine on one scenario for
	// the nearest GOMAXPROCS at or below the run's — a 2-core runner is held
	// to the 2-core baseline, not the 8-core one.
	recorded := func(scenario, engine string) (float64, int) {
		want, wantProcs := 0.0, 0
		for _, r := range base.Rows {
			if r.Scenario == scenario && r.Engine == engine && r.Gomaxprocs <= procs && r.Gomaxprocs > wantProcs {
				want, wantProcs = r.QuantaPerS, r.Gomaxprocs
			}
		}
		if wantProcs == 0 {
			t.Fatalf("baseline has no %s %s row at or below GOMAXPROCS=%d", scenario, engine, procs)
		}
		return want, wantProcs
	}
	// hold gates one engine on one scenario against its recorded row and
	// returns what was measured.
	hold := func(scenario, engine string) float64 {
		want, wantProcs := recorded(scenario, engine)
		got := measured(scenario, engine)
		floor := want * (1 - tol)
		t.Logf("%s %s throughput: %.0f quanta/s (baseline %.0f @ GOMAXPROCS=%d, floor %.0f)",
			scenario, engine, got, want, wantProcs, floor)
		if got < floor {
			t.Errorf("%s %s engine regressed: %.0f quanta/s is more than %.0f%% below the committed baseline %.0f (GOMAXPROCS=%d)",
				scenario, engine, got, tol*100, want, wantProcs)
		}
		return got
	}

	got := hold("flagship", "par")

	// The eight job-pair groups must actually run on two cores: the absolute
	// floor above cannot tell a parallel engine from a fast sequential one.
	if procs >= 2 && run.Host.NumCPU >= 2 {
		const minParOverSeq = 1.5
		seq := measured("flagship", "seq")
		t.Logf("flagship seq throughput: %.0f quanta/s; par/seq %.2fx (floor %.1fx)", seq, got/seq, minParOverSeq)
		if got < minParOverSeq*seq {
			t.Errorf("parallel engine does not scale: %.0f quanta/s is %.2fx the sequential engine's %.0f, want at least %.1fx",
				got, got/seq, seq, minParOverSeq)
		}
	}

	idleSeq := hold("idle_fleet", "seq")
	idlePar := hold("idle_fleet", "par")

	// An idle fleet gives the parallel engine nothing to overlap: it runs
	// its thin windows inline and must keep up with the sequential one.
	recSeq, _ := recorded("idle_fleet", "seq")
	recPar, _ := recorded("idle_fleet", "par")
	minIdle := math.Floor(recPar/recSeq*10) / 10
	t.Logf("idle_fleet par/seq %.2fx (recorded %.2fx, floor %.1fx on two or more cores)", idlePar/idleSeq, recPar/recSeq, minIdle)
	if procs >= 2 && run.Host.NumCPU >= 2 && idlePar < minIdle*idleSeq {
		t.Errorf("parallel engine falls behind on the idle fleet: %.2fx the sequential engine's throughput, want at least %.1fx",
			idlePar/idleSeq, minIdle)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
