package sched

import (
	"math/rand"
	"testing"

	"heterodc/internal/fault"
	"heterodc/internal/kernel"
	"heterodc/internal/member"
	"heterodc/internal/npb"
)

func smallJobs(n int) []Job {
	return GenerateJobs(42, n, []npb.Class{npb.ClassS}, nil)
}

func TestPoliciesCompleteSustained(t *testing.T) {
	jobs := []Job{
		{ID: 0, Bench: npb.EP, Class: npb.ClassS, Threads: 2},
		{ID: 1, Bench: npb.IS, Class: npb.ClassS, Threads: 2},
		{ID: 2, Bench: npb.CG, Class: npb.ClassS, Threads: 1},
		{ID: 3, Bench: npb.FT, Class: npb.ClassS, Threads: 2},
		{ID: 4, Bench: npb.Verus, Class: npb.ClassS, Threads: 1},
		{ID: 5, Bench: npb.SP, Class: npb.ClassS, Threads: 2},
	}
	for _, p := range []Policy{
		StaticX86Pair(), StaticHetBalanced(), StaticHetUnbalanced(),
		DynamicBalanced(), DynamicUnbalanced(),
	} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			cl, models := TestbedFor(p)
			r := NewRunner(cl, p, models)
			res, err := r.Run(Workload{Jobs: jobs, Concurrency: 3})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Makespan <= 0 {
				t.Errorf("zero makespan")
			}
			if res.EnergyTotal <= 0 {
				t.Errorf("zero energy")
			}
			t.Logf("%s: makespan=%.3fs energy=%.2fJ migrations=%d",
				p.Name(), res.Makespan, res.EnergyTotal, res.Migrations)
		})
	}
}

func TestDynamicPolicyMigrates(t *testing.T) {
	jobs := smallJobs(8)
	for i := range jobs {
		jobs[i].Class = npb.ClassS
		jobs[i].Arrival = 0
	}
	p := DynamicBalanced()
	cl, models := TestbedFor(p)
	r := NewRunner(cl, p, models)
	r.RebalanceEvery = 1e-3
	r.Cooldown = 2e-3
	res, err := r.Run(Workload{Jobs: jobs, Concurrency: 6})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	t.Logf("dynamic: migrations=%d makespan=%.3f", res.Migrations, res.Makespan)
}

func TestPeriodicArrivalsIdleGaps(t *testing.T) {
	spacing := func(r *rand.Rand, i int) float64 {
		if i%3 == 0 {
			return 0.05 + 0.05*r.Float64()
		}
		return 0
	}
	jobs := GenerateJobs(7, 6, []npb.Class{npb.ClassS}, spacing)
	for i := range jobs {
		jobs[i].Class = npb.ClassS
		jobs[i].Threads = 1
	}
	p := StaticHetBalanced()
	cl, models := TestbedFor(p)
	r := NewRunner(cl, p, models)
	res, err := r.Run(Workload{Jobs: jobs})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Makespan < jobs[len(jobs)-1].Arrival {
		t.Errorf("makespan %.3f before last arrival %.3f", res.Makespan, jobs[len(jobs)-1].Arrival)
	}
}

func TestPlacementSkipsCrashedNode(t *testing.T) {
	p := DynamicBalanced()
	cl, models := TestbedFor(p)
	cl.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Node: 1, At: 0, RecoverAt: 0}}})
	cl.CrashNode(1)
	st := &State{Cluster: cl}
	for i := 0; i < 4; i++ {
		if n := place(st, p, 2); n != 0 {
			t.Fatalf("placement %d chose crashed node %d", i, n)
		}
		st.Active = append(st.Active, &JobRun{Job: Job{Threads: 2}, Node: 0})
	}
	_ = models
}

func TestRebalanceIgnoresCrashedNode(t *testing.T) {
	p := DynamicBalanced()
	cl, _ := TestbedFor(p)
	img, err := npb.Build(npb.EP, npb.ClassS, 1)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := cl.Spawn(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl.CrashNode(1)
	// Node 0 is overloaded relative to (empty, crashed) node 1; with node 1
	// down there is no live target, so no migration is requested.
	st := &State{Cluster: cl, Active: []*JobRun{
		{Job: Job{Threads: 4}, Proc: proc, Node: 0},
		{Job: Job{Threads: 4}, Proc: proc, Node: 0},
	}, Now: 1.0}
	rebalance(st, p, 0)
	for _, jr := range st.Active {
		if jr.Node != 0 {
			t.Fatal("rebalance moved a job onto a crashed node")
		}
	}
	// After recovery the node is a target again.
	cl.RecoverNode(1)
	rebalance(st, p, 0)
	moved := false
	for _, jr := range st.Active {
		if jr.Node == 1 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("rebalance ignored the recovered node")
	}
}

// TestRunnerCheckpointRecovery: with the checkpoint policy enabled, a
// permanent node-1 crash must not fail the workload — jobs stranded on the
// dead node are restored from their latest image on node 0 and the run
// completes, reporting the recovery in the result.
func TestRunnerCheckpointRecovery(t *testing.T) {
	jobs := []Job{
		{ID: 0, Bench: npb.EP, Class: npb.ClassS, Threads: 1},
		{ID: 1, Bench: npb.IS, Class: npb.ClassS, Threads: 1},
		{ID: 2, Bench: npb.CG, Class: npb.ClassS, Threads: 1},
		{ID: 3, Bench: npb.IS, Class: npb.ClassS, Threads: 1},
	}
	p := StaticHetBalanced() // half the jobs start on node 1
	cl, models := TestbedFor(p)
	// Node 1 dies for good mid-run, after at least one checkpoint interval.
	cl.InjectFaults(fault.Plan{Seed: 5, Crashes: []fault.Crash{{Node: 1, At: 1e-3, RecoverAt: 0}}})
	r := NewRunner(cl, p, models)
	r.Checkpoint = kernel.CkptPolicy{EverySeconds: 2e-4}
	res, err := r.Run(Workload{Jobs: jobs, Concurrency: 4})
	if err != nil {
		t.Fatalf("run with permanent crash: %v", err)
	}
	if res.Restores < 1 {
		t.Errorf("no job was restored from checkpoint (restores=%d)", res.Restores)
	}
	if res.Checkpoints < len(jobs) {
		t.Errorf("implausibly few checkpoints: %d", res.Checkpoints)
	}
}

// TestRunnerIdleGapsNoFalseSuspicions: with a SWIM membership service
// attached, workload idle gaps far longer than the suspicion timeout must
// not read as silence — the runner steps the cluster through the gap (the
// detector keeps probing on schedule), so a healthy fleet finishes with
// zero suspicions.
func TestRunnerIdleGapsNoFalseSuspicions(t *testing.T) {
	spacing := func(r *rand.Rand, i int) float64 {
		if i%2 == 1 {
			return 0.05 + 0.05*r.Float64() // gap >> SuspectTimeout (3ms)
		}
		return 0
	}
	jobs := GenerateJobs(9, 4, []npb.Class{npb.ClassS}, spacing)
	for i := range jobs {
		jobs[i].Class = npb.ClassS
		jobs[i].Threads = 1
	}
	p := StaticHetBalanced()
	cl, models := TestbedFor(p)
	svc, err := member.Attach(cl, member.Config{HeartbeatPeriod: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(cl, p, models)
	res, err := r.Run(Workload{Jobs: jobs})
	if err != nil {
		t.Fatalf("run with membership attached: %v", err)
	}
	if res.Makespan < jobs[len(jobs)-1].Arrival {
		t.Errorf("makespan %.3f before last arrival %.3f", res.Makespan, jobs[len(jobs)-1].Arrival)
	}
	st := svc.Stats()
	if st.Suspicions != 0 || st.Deaths != 0 {
		t.Errorf("idle gaps produced false detector verdicts: %+v", st)
	}
	if st.Probes == 0 {
		t.Error("detector never probed across the workload")
	}
	for n := 0; n < cl.NumNodes(); n++ {
		for m := 0; m < cl.NumNodes(); m++ {
			if svc.View(n, m) != member.Alive {
				t.Errorf("view[%d][%d] = %v after a healthy run", n, m, svc.View(n, m))
			}
		}
	}
}

func TestRunnerSurvivesMidRunCrash(t *testing.T) {
	jobs := smallJobs(4)
	for i := range jobs {
		jobs[i].Class = npb.ClassS
		jobs[i].Arrival = 0
	}
	p := DynamicBalanced()
	cl, models := TestbedFor(p)
	// Node 1 drops out almost immediately and comes back much later.
	cl.InjectFaults(fault.Plan{Seed: 3, Crashes: []fault.Crash{{Node: 1, At: 2e-3, RecoverAt: 30e-3}}})
	r := NewRunner(cl, p, models)
	res, err := r.Run(Workload{Jobs: jobs, Concurrency: 4})
	if err != nil {
		t.Fatalf("run with mid-run crash: %v", err)
	}
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
}
