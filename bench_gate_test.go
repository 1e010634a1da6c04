package heterodc_bench

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestEngineBenchGate is the CI throughput gate for the time engines: it
// replays the scenarios BenchmarkEngineFlagship and BenchmarkEngineIdleFleet
// measure and fails if quanta/sec fall more than the committed tolerance
// below the BENCH_engine.json row recorded for this GOMAXPROCS — the
// parallel engine on the flagship (where StepNode dominates and the groups
// must scale), both engines on the idle fleet (where finding the next
// action is the whole cost) — or, on a host with at least two cores, if the
// parallel engine fails to reach 1.5 times the sequential engine's flagship
// throughput measured in the same run (the baseline's rows read 2x at
// GOMAXPROCS=2). Opt-in via BENCH_GATE=1 so ordinary `go test ./...` runs —
// and laptops under load — are never gated; CI sets the variable explicitly.
func TestEngineBenchGate(t *testing.T) {
	if os.Getenv("BENCH_GATE") == "" {
		t.Skip("set BENCH_GATE=1 to enforce the engine throughput gate")
	}
	raw, err := os.ReadFile("BENCH_engine.json")
	if err != nil {
		t.Fatalf("read baseline: %v", err)
	}
	var base struct {
		Gate struct {
			ToleranceFrac float64 `json:"tolerance_frac"`
		} `json:"gate"`
		Rows []struct {
			Scenario   string  `json:"scenario"`
			Engine     string  `json:"engine"`
			Gomaxprocs int     `json:"gomaxprocs"`
			QuantaPerS float64 `json:"quanta_per_s"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("parse baseline: %v", err)
	}
	tol := base.Gate.ToleranceFrac
	if tol <= 0 || tol >= 1 {
		t.Fatalf("baseline gate.tolerance_frac %v out of (0,1)", tol)
	}
	procs := runtime.GOMAXPROCS(0)
	const reps = 3
	throughput := func(run func(testing.TB, string) (uint64, float64), engine string) float64 {
		var quanta uint64
		start := time.Now()
		for i := 0; i < reps; i++ {
			q, _ := run(t, engine)
			quanta += q
		}
		return float64(quanta) / time.Since(start).Seconds()
	}
	// hold gates one engine on one scenario against the recorded row for the
	// nearest GOMAXPROCS at or below this host's — a 2-core runner is held to
	// the 2-core baseline, not the 8-core one — and returns what it measured.
	hold := func(scenario string, run func(testing.TB, string) (uint64, float64), engine string) float64 {
		want, wantProcs := 0.0, 0
		for _, r := range base.Rows {
			if r.Scenario == scenario && r.Engine == engine && r.Gomaxprocs <= procs && r.Gomaxprocs > wantProcs {
				want, wantProcs = r.QuantaPerS, r.Gomaxprocs
			}
		}
		if wantProcs == 0 {
			t.Fatalf("baseline has no %s %s row at or below GOMAXPROCS=%d", scenario, engine, procs)
		}
		got := throughput(run, engine)
		floor := want * (1 - tol)
		t.Logf("%s %s throughput: %.0f quanta/s over %d reps (baseline %.0f @ GOMAXPROCS=%d, floor %.0f)",
			scenario, engine, got, reps, want, wantProcs, floor)
		if got < floor {
			t.Errorf("%s %s engine regressed: %.0f quanta/s is more than %.0f%% below the committed baseline %.0f (GOMAXPROCS=%d)",
				scenario, engine, got, tol*100, want, wantProcs)
		}
		return got
	}

	flagshipRun(t, "par") // warm-up: JIT-free, but page/alloc caches settle
	got := hold("flagship", flagshipRun, "par")

	// The eight job-pair groups must actually run on two cores: the absolute
	// floor above cannot tell a parallel engine from a fast sequential one.
	if procs >= 2 && runtime.NumCPU() >= 2 {
		const minParOverSeq = 1.5
		seq := throughput(flagshipRun, "seq")
		t.Logf("flagship seq throughput: %.0f quanta/s; par/seq %.2fx (floor %.1fx)", seq, got/seq, minParOverSeq)
		if got < minParOverSeq*seq {
			t.Errorf("parallel engine does not scale: %.0f quanta/s is %.2fx the sequential engine's %.0f, want at least %.1fx",
				got, got/seq, seq, minParOverSeq)
		}
	}

	hold("idle_fleet", idleFleetRun, "seq")
	hold("idle_fleet", idleFleetRun, "par")
}
