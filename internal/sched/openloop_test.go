package sched

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"heterodc/internal/member"
	"heterodc/internal/npb"
	"heterodc/internal/topo"
	"heterodc/internal/traffic"
)

func openLoopJobs(t *testing.T, n int, rate float64) []Job {
	t.Helper()
	src, err := traffic.NewSource(traffic.Spec{
		Kind: traffic.KindPoisson, Rate: rate, Seed: 7,
	}.WithDefaults())
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	return GenerateJobs(42, n, []npb.Class{npb.ClassS}, traffic.Spacing(src))
}

func runOpenLoop(t *testing.T, engine string) *OpenLoopResult {
	t.Helper()
	p := DynamicBalanced()
	cl, models, err := TestbedFor(p, true, topo.FlatSpec())
	if err != nil {
		t.Fatalf("testbed: %v", err)
	}
	if engine == "par" {
		cl.UseParallelEngine(0)
	}
	r := NewRunner(cl, p, models)
	r.RebalanceEvery = 2e-3
	r.Cooldown = 4e-3
	res, err := r.RunOpenLoop(OpenLoop{
		Jobs: openLoopJobs(t, 10, 400),
		SLO:  traffic.SLO{LatencyTargetSec: 0.5, BudgetFrac: 0.5},
	})
	if err != nil {
		t.Fatalf("open-loop run (%s): %v", engine, err)
	}
	return res
}

func TestOpenLoopCompletes(t *testing.T) {
	res := runOpenLoop(t, "seq")
	if res.Completed != res.Offered || res.Completed != 10 {
		t.Fatalf("completed %d/%d jobs", res.Completed, res.Offered)
	}
	if res.SLO.Summary.Count != 10 {
		t.Errorf("SLO report counted %d samples, want 10", res.SLO.Summary.Count)
	}
	lastArrival := 0.0
	for _, j := range res.Jobs {
		if j.SojournSec <= 0 {
			t.Errorf("job %d has non-positive sojourn %g", j.ID, j.SojournSec)
		}
		if j.ExitSec < j.ArrivalSec {
			t.Errorf("job %d exits at %g before arriving at %g", j.ID, j.ExitSec, j.ArrivalSec)
		}
		if j.ArrivalSec > lastArrival {
			lastArrival = j.ArrivalSec
		}
	}
	if res.Makespan < lastArrival {
		t.Errorf("makespan %g precedes last arrival %g", res.Makespan, lastArrival)
	}
	if res.ThroughputJobsPerSec <= 0 {
		t.Errorf("non-positive throughput %g", res.ThroughputJobsPerSec)
	}
	if res.SLO.Violations > res.SLO.Summary.Count {
		t.Errorf("violations %d exceed sample count %d", res.SLO.Violations, res.SLO.Summary.Count)
	}
	t.Logf("open-loop: makespan=%.4fs p50=%.4f p99=%.4f viol=%d mig=%d",
		res.Makespan, res.SLO.Summary.P50Sec, res.SLO.Summary.P99Sec, res.SLO.Violations, res.Migrations)
}

// TestOpenLoopEngineIdentical is the heart of the open-loop design: admission
// and rebalancing run as engine control events, so the sequential and
// parallel engines must produce bit-identical per-job timings and SLO
// reports.
func TestOpenLoopEngineIdentical(t *testing.T) {
	seq := runOpenLoop(t, "seq")
	par := runOpenLoop(t, "par")
	if seq.Fingerprint() != par.Fingerprint() {
		t.Fatalf("engine fingerprints diverge:\nseq %s\npar %s", seq.Fingerprint(), par.Fingerprint())
	}
	if seq.SLO.Summary.P99Sec != par.SLO.Summary.P99Sec {
		t.Errorf("p99 diverges: seq %v par %v", seq.SLO.Summary.P99Sec, par.SLO.Summary.P99Sec)
	}
}

func TestOpenLoopValidation(t *testing.T) {
	p := StaticHetBalanced()
	cl, models, err := TestbedFor(p, true, topo.FlatSpec())
	if err != nil {
		t.Fatalf("testbed: %v", err)
	}
	r := NewRunner(cl, p, models)
	if _, err := r.RunOpenLoop(OpenLoop{SLO: traffic.SLO{LatencyTargetSec: 1, BudgetFrac: 0.1}}); err == nil {
		t.Errorf("empty workload accepted")
	}
	if _, err := r.RunOpenLoop(OpenLoop{
		Jobs: smallJobs(2),
		SLO:  traffic.SLO{LatencyTargetSec: -1, BudgetFrac: 0.1},
	}); err == nil {
		t.Errorf("negative SLO target accepted")
	}
	bad := smallJobs(2)
	bad[1].Arrival = -0.5
	if _, err := r.RunOpenLoop(OpenLoop{
		Jobs: bad,
		SLO:  traffic.SLO{LatencyTargetSec: 1, BudgetFrac: 0.1},
	}); err == nil {
		t.Errorf("negative arrival accepted")
	}
}

// TestArrivalSpacingSeam pins the arrivalSpacing seam the open-loop mode is
// built on: the hook's deltas accumulate into arrival stamps, the stream is
// seed-stable, order is preserved, and a traffic-driven hook leaves the job
// mix untouched.
func TestArrivalSpacingSeam(t *testing.T) {
	spacing := func(r *rand.Rand, i int) float64 { return 0.25 * float64(i+1) }
	jobs := GenerateJobs(9, 6, nil, spacing)
	want := 0.0
	for i, j := range jobs {
		want += 0.25 * float64(i+1)
		if j.Arrival != want {
			t.Errorf("job %d arrival %g, want cumulative %g", i, j.Arrival, want)
		}
		if j.ID != i {
			t.Errorf("job %d has ID %d: generation must preserve order", i, j.ID)
		}
	}

	// Seed stability: same seed, same hook => bit-identical stream.
	src1, _ := traffic.NewSource(traffic.Spec{Kind: traffic.KindBursty, Rate: 200, Seed: 5}.WithDefaults())
	src2, _ := traffic.NewSource(traffic.Spec{Kind: traffic.KindBursty, Rate: 200, Seed: 5}.WithDefaults())
	a := GenerateJobs(11, 40, nil, traffic.Spacing(src1))
	b := GenerateJobs(11, 40, nil, traffic.Spacing(src2))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
		if math.Float64bits(a[i].Arrival) != math.Float64bits(b[i].Arrival) {
			t.Fatalf("job %d arrival bits differ", i)
		}
		if i > 0 && a[i].Arrival < a[i-1].Arrival {
			t.Errorf("arrivals out of order at %d: %g < %g", i, a[i].Arrival, a[i-1].Arrival)
		}
	}

	// The traffic.Spacing hook must not perturb the job mix: the same job
	// seed draws the same bench/class/thread sequence with or without it.
	src3, _ := traffic.NewSource(traffic.Spec{Kind: traffic.KindDiurnal, Rate: 300, Seed: 17}.WithDefaults())
	mixed := GenerateJobs(11, 40, nil, traffic.Spacing(src3))
	plain := GenerateJobs(11, 40, nil, nil)
	for i := range plain {
		if mixed[i].Bench != plain[i].Bench || mixed[i].Class != plain[i].Class ||
			mixed[i].Threads != plain[i].Threads {
			t.Fatalf("job %d mix changed by arrival hook: %+v vs %+v", i, mixed[i], plain[i])
		}
	}
}

// TestOpenLoopReturnsUnderMembership: with a static policy and no Degrade,
// no firing is left after the last arrival, and a SWIM service keeps Step
// true forever — the run must still notice the last exit and return.
func TestOpenLoopReturnsUnderMembership(t *testing.T) {
	p := StaticHetBalanced()
	cl, models, err := TestbedFor(p, true, topo.FlatSpec())
	if err != nil {
		t.Fatalf("testbed: %v", err)
	}
	if _, err := member.Attach(cl, member.Config{HeartbeatPeriod: 1e-3}); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(cl, p, models)
	type outcome struct {
		res *OpenLoopResult
		err error
	}
	done := make(chan outcome, 1)
	jobs := openLoopJobs(t, 4, 400)
	go func() {
		res, err := r.RunOpenLoop(OpenLoop{
			Jobs: jobs,
			SLO:  traffic.SLO{LatencyTargetSec: 0.5, BudgetFrac: 0.5},
		})
		done <- outcome{res, err}
	}()
	var res *OpenLoopResult
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("open-loop run: %v", o.err)
		}
		res = o.res
	case <-time.After(20 * time.Second):
		t.Fatal("RunOpenLoop still running after 20 s of host time: nothing noticed the last exit")
	}
	if res.Completed != res.Offered {
		t.Fatalf("completed %d/%d jobs", res.Completed, res.Offered)
	}
	lastExit := 0.0
	for _, j := range res.Jobs {
		lastExit = math.Max(lastExit, j.ExitSec)
	}
	if res.Makespan != lastExit {
		t.Errorf("makespan %g, want the last exit instant %g", res.Makespan, lastExit)
	}
}
