package heterodc_bench

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestEngineBenchGate is the CI throughput gate for the parallel engine:
// it replays the flagship scenario (the same one BenchmarkEngineFlagship
// measures) and fails if quanta/sec fall more than the committed tolerance
// below the BENCH_engine.json row recorded for this GOMAXPROCS, or — on a
// host with at least two cores — if the parallel engine fails to reach 1.5
// times the sequential engine's throughput measured in the same run (the
// baseline's rows read 2x at GOMAXPROCS=2). Opt-in via BENCH_GATE=1 so ordinary `go test ./...` runs — and
// laptops under load — are never gated; CI sets the variable explicitly.
func TestEngineBenchGate(t *testing.T) {
	if os.Getenv("BENCH_GATE") == "" {
		t.Skip("set BENCH_GATE=1 to enforce the flagship throughput gate")
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
	// Gate against the recorded row for the nearest GOMAXPROCS at or below
	// this host's — a 2-core runner is held to the 2-core baseline, not the
	// 8-core one.
	procs := runtime.GOMAXPROCS(0)
	want := 0.0
	wantProcs := 0
	for _, r := range base.Rows {
		if r.Engine == "par" && r.Gomaxprocs <= procs && r.Gomaxprocs > wantProcs {
			want, wantProcs = r.QuantaPerS, r.Gomaxprocs
		}
	}
	if wantProcs == 0 {
		t.Fatalf("baseline has no par row at or below GOMAXPROCS=%d", procs)
	}

	flagshipRun(t, "par") // warm-up: JIT-free, but page/alloc caches settle
	const reps = 3
	throughput := func(engine string) float64 {
		var quanta uint64
		start := time.Now()
		for i := 0; i < reps; i++ {
			q, _ := flagshipRun(t, engine)
			quanta += q
		}
		return float64(quanta) / time.Since(start).Seconds()
	}
	got := throughput("par")
	floor := want * (1 - tol)
	t.Logf("flagship par throughput: %.0f quanta/s over %d reps (baseline %.0f @ GOMAXPROCS=%d, floor %.0f)",
		got, reps, want, wantProcs, floor)
	if got < floor {
		t.Errorf("parallel engine regressed: %.0f quanta/s is more than %.0f%% below the committed baseline %.0f (GOMAXPROCS=%d)",
			got, tol*100, want, wantProcs)
	}

	// The eight job-pair groups must actually run on two cores: the absolute
	// floor above cannot tell a parallel engine from a fast sequential one.
	if procs >= 2 && runtime.NumCPU() >= 2 {
		const minParOverSeq = 1.5
		seq := throughput("seq")
		t.Logf("flagship seq throughput: %.0f quanta/s; par/seq %.2fx (floor %.1fx)", seq, got/seq, minParOverSeq)
		if got < minParOverSeq*seq {
			t.Errorf("parallel engine does not scale: %.0f quanta/s is %.2fx the sequential engine's %.0f, want at least %.1fx",
				got, got/seq, seq, minParOverSeq)
		}
	}
}
