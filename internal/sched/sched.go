// Package sched implements the datacenter-level job scheduling studies of
// the paper's evaluation: static policies that assign jobs to machines at
// arrival and can never move them, and dynamic policies that exploit
// heterogeneous-ISA migration to rebalance running jobs between the x86 and
// ARM machines (balanced and unbalanced variants, as in Section 6).
package sched

import (
	"math"
	"math/rand"
	"sort"

	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/npb"
	"heterodc/internal/power"
	"heterodc/internal/traffic"
)

// Job is one schedulable unit: a benchmark instance.
type Job struct {
	ID      int
	Bench   npb.Bench
	Class   npb.Class
	Threads int
	// Arrival is the simulated arrival time in seconds.
	Arrival float64
	// Priority ranks the job for admission control under degradation:
	// 0 is the most sheddable, higher values are protected longer.
	Priority int
}

// JobRun tracks a job through execution.
type JobRun struct {
	Job  Job
	Proc *kernel.Process
	Node int
	// lastMove rate-limits migrations.
	lastMove float64
	// Proactive-evacuation bookkeeping (see jobDriver.evacuate):
	// evacFrom is the degraded node being fled (-1 when no evacuation is
	// in flight), the rest implement per-job retry with capped backoff.
	evacFrom     int
	evacAttempts int
	evacNext     float64
	evacBackoff  float64
}

// State is the scheduler's view of the cluster.
type State struct {
	Cluster *kernel.Cluster
	Active  []*JobRun
	Now     float64
	// Avoid, when set, marks nodes placement should treat as last-resort
	// (the brownout signal): place prefers other nodes and rebalance never
	// migrates toward them. Jobs still land on avoided nodes when nothing
	// else is available.
	Avoid func(node int) bool
}

// ThreadsOn returns the number of job threads currently assigned to node.
func (s *State) ThreadsOn(node int) int {
	n := 0
	for _, r := range s.Active {
		if r.Node == node {
			n += r.Job.Threads
		}
	}
	return n
}

// Policy decides placement and (for dynamic policies) migration: every x86
// node carries x86Weight, every other node weight 1, and placement
// minimises threads/weight. Weight 1 is a balanced policy; on the testbed
// node 0 is the x86 machine, so a heavier weight is the energy-saving
// arrangement the paper builds on DeVuyst et al.'s unbalanced-scheduling
// observation.
type Policy struct {
	name      string
	dynamic   bool
	x86Weight float64
	// x86Machines > 0 marks a homogeneous baseline: TestbedFor builds that
	// many identical x86 machines instead of the x86+ARM testbed.
	x86Machines int
}

func (p Policy) Name() string { return p.name }

// Weights returns per-node load weights. A weight of 0 disables a node.
func (p Policy) Weights(s *State) []float64 {
	w := make([]float64, len(s.Cluster.Kernels))
	for i, k := range s.Cluster.Kernels {
		if k.Arch == isa.X86 {
			w[i] = p.x86Weight
		} else {
			w[i] = 1
		}
	}
	return w
}

// Dynamic reports whether the policy migrates running jobs.
func (p Policy) Dynamic() bool { return p.dynamic }

// The paper's five policies.

// StaticX86Pair: balance across two identical x86 machines, no migration
// (the baseline the energy savings are measured against).
func StaticX86Pair() Policy { return Policy{name: "static x86(2)", x86Weight: 1, x86Machines: 2} }

// StaticHetBalanced: balance across x86+ARM, no migration.
func StaticHetBalanced() Policy { return NewBalanced("static het balanced", false) }

// StaticHetUnbalanced: weight x86 heavier, no migration.
func StaticHetUnbalanced() Policy { return NewArchWeighted("static het unbalanced", false, 2.2) }

// DynamicBalanced: balance thread counts and migrate to repair imbalance.
func DynamicBalanced() Policy { return NewBalanced("dynamic balanced", true) }

// DynamicUnbalanced: keep x86 heavier and migrate to maintain the skew.
func DynamicUnbalanced() Policy { return NewArchWeighted("dynamic unbalanced", true, 2.2) }

// NewBalanced builds a named balanced policy for arbitrary cluster shapes
// (the rack-scale extension uses it on four machines).
func NewBalanced(name string, dynamic bool) Policy {
	return NewArchWeighted(name, dynamic, 1)
}

// NewArchWeighted builds a policy that keeps x86 machines loaded
// x86Weight-times heavier than the others, on any cluster shape.
func NewArchWeighted(name string, dynamic bool, x86Weight float64) Policy {
	return Policy{name: name, dynamic: dynamic, x86Weight: x86Weight}
}

// place picks the node minimising threads/weight (ties to lower index).
// Crashed nodes take no new work and avoided (degraded) nodes are a last
// resort; if every node is down the lowest index is returned and the job
// waits there for a recovery.
func place(s *State, p Policy, threads int) int {
	if n, ok := placePass(s, p, threads, true); ok {
		return n
	}
	n, _ := placePass(s, p, threads, false)
	return n
}

// placePass runs one placement sweep; honorAvoid skips brownout nodes.
// ok=false when no node was eligible.
func placePass(s *State, p Policy, threads int, honorAvoid bool) (int, bool) {
	w := p.Weights(s)
	best, bestScore, found := 0, 1e30, false
	for n := range s.Cluster.Kernels {
		if w[n] <= 0 || s.Cluster.NodeUnavailable(n) {
			continue
		}
		if honorAvoid && s.Avoid != nil && s.Avoid(n) {
			continue
		}
		score := (float64(s.ThreadsOn(n)) + float64(threads)) / w[n]
		if score < bestScore {
			best, bestScore, found = n, score, true
		}
	}
	return best, found
}

// rebalance requests one migration if it improves the weighted balance.
func rebalance(s *State, p Policy, cooldown float64) {
	if len(s.Cluster.Kernels) < 2 {
		return
	}
	w := p.Weights(s)
	type load struct {
		node  int
		score float64
	}
	loads := make([]load, 0, len(w))
	for n := range s.Cluster.Kernels {
		if w[n] <= 0 || s.Cluster.NodeUnavailable(n) {
			// An unavailable node — crashed under the oracle, *suspected* when
			// a failure detector is installed — neither gives up jobs (its
			// threads are frozen until recovery) nor receives them; once it is
			// readmitted it re-enters the balance and load flows back.
			continue
		}
		loads = append(loads, load{n, float64(s.ThreadsOn(n)) / w[n]})
	}
	if len(loads) < 2 {
		return
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i].score > loads[j].score })
	from, to := loads[0], loads[len(loads)-1]
	if s.Avoid != nil && s.Avoid(to.node) {
		// Brownout: never migrate toward an avoided node; pick the least
		// loaded candidate outside the avoided set, or stand pat.
		to = from
		for i := len(loads) - 1; i > 0; i-- {
			if !s.Avoid(loads[i].node) {
				to = loads[i]
				break
			}
		}
	}
	if from.score <= to.score {
		return
	}
	// Find the job on `from` whose move best narrows the gap.
	var best *JobRun
	bestGap := from.score - to.score
	for _, r := range s.Active {
		if r.Node != from.node {
			continue
		}
		if s.Now-r.lastMove < cooldown {
			continue
		}
		t := float64(r.Job.Threads)
		newFrom := (float64(s.ThreadsOn(from.node)) - t) / w[from.node]
		newTo := (float64(s.ThreadsOn(to.node)) + t) / w[to.node]
		gap := newFrom - newTo
		if gap < 0 {
			gap = -gap
		}
		if gap < bestGap {
			bestGap = gap
			best = r
		}
	}
	if best != nil {
		s.Cluster.RequestProcessMigration(best.Proc, to.node)
		best.Node = to.node
		best.lastMove = s.Now
	}
}

// Workload is a set of jobs plus an admission rule. Job IDs must be
// distinct values in [0, len(Jobs)), as GenerateJobs assigns them.
type Workload struct {
	Jobs []Job
	// Concurrency, when > 0, selects the closed-loop (sustained) rule: at
	// most this many jobs in flight, the next one starting as soon as one
	// finishes (arrival times are ignored). Zero admits each job at its
	// arrival instant (the periodic mode).
	Concurrency int
}

// Result summarises one workload execution.
type Result struct {
	Policy string
	// Makespan is the last job's exit instant (seconds).
	Makespan float64
	// EnergyCPU per node and total (joules, package power).
	EnergyCPU   []float64
	EnergyTotal float64
	// EDP is energy * makespan.
	EDP float64
	// Migrations counts job container moves.
	Migrations int
	// Checkpoints and Restores count checkpoint images written and crash
	// recoveries performed when the runner's Checkpoint policy is enabled.
	Checkpoints int
	Restores    int

	fingerprint string
}

// Fingerprint digests every engine-reproducible observable at full bit
// precision: per-job placement, timing and migrations and the SLO report.
// Both engines give the same one for the same workload under either rule;
// energy is left out (the meter integrates over engine-specific intervals).
func (r *Result) Fingerprint() string { return r.fingerprint }

// Runner executes a workload under a policy on a cluster: Run for the
// paper's sustained and periodic studies, RunOpenLoop for arrival-driven
// traffic with SLO accounting. Both are the same driver (jobDriver).
type Runner struct {
	Cluster *kernel.Cluster
	Policy  Policy
	Models  []power.Model
	// RebalanceEvery is the dynamic policy's decision interval (seconds).
	RebalanceEvery float64
	// Cooldown is the per-job migration rate limit.
	Cooldown float64
	// Checkpoint, when enabled, checkpoints every job under this policy and
	// restores jobs stranded by a permanent node crash onto a surviving node
	// from their latest image (the scheduler re-places them there).
	Checkpoint kernel.CkptPolicy
}

// NewRunner builds a runner with testbed defaults.
func NewRunner(cl *kernel.Cluster, p Policy, models []power.Model) *Runner {
	return &Runner{
		Cluster: cl, Policy: p, Models: models,
		RebalanceEvery: 5e-3, Cooldown: 20e-3,
	}
}

// Run executes the workload to completion and reports energy and makespan.
// It is the one job driver (see jobDriver) under the admission rule the
// workload names; the SLO it accounts against is one no job can violate.
func (r *Runner) Run(w Workload) (*Result, error) {
	res, err := r.drive(OpenLoop{
		Jobs: w.Jobs,
		SLO:  traffic.SLO{LatencyTargetSec: math.MaxFloat64},
	}, w.Concurrency)
	if err != nil {
		return nil, err
	}
	return &res.Result, nil
}

// GenerateJobs draws n jobs uniformly from the paper's mix (NPB kernels in
// several classes plus bzip2smp and verus), deterministically from seed.
// classes weights the class distribution (repeat entries to skew it); nil
// selects a short/long mix.
func GenerateJobs(seed int64, n int, classes []npb.Class, arrivalSpacing func(r *rand.Rand, i int) float64) []Job {
	rng := rand.New(rand.NewSource(seed))
	benches := []npb.Bench{npb.EP, npb.IS, npb.CG, npb.FT, npb.SP, npb.BT, npb.MG, npb.Bzip2, npb.Verus}
	if len(classes) == 0 {
		classes = []npb.Class{npb.ClassS, npb.ClassA, npb.ClassA, npb.ClassB}
	}
	threadChoices := []int{1, 2, 4}
	var jobs []Job
	t := 0.0
	for i := 0; i < n; i++ {
		if arrivalSpacing != nil {
			t += arrivalSpacing(rng, i)
		}
		jobs = append(jobs, Job{
			ID:      i,
			Bench:   benches[rng.Intn(len(benches))],
			Class:   classes[rng.Intn(len(classes))],
			Threads: threadChoices[rng.Intn(len(threadChoices))],
			Arrival: t,
		})
	}
	return jobs
}

// StampPriorities assigns each job a deterministic priority in
// [0, levels) hashed from (seed, job ID). It deliberately does not draw
// from GenerateJobs's stream: stamping priorities on an existing
// workload leaves its job mix and arrival times untouched.
func StampPriorities(jobs []Job, seed int64, levels int) {
	if levels <= 1 {
		for i := range jobs {
			jobs[i].Priority = 0
		}
		return
	}
	for i := range jobs {
		x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(jobs[i].ID)*0xbf58476d1ce4e5b9
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		jobs[i].Priority = int(x % uint64(levels))
	}
}

// TestbedFor builds the right cluster for a policy: identical x86 machines
// for a homogeneous baseline (StaticX86Pair), otherwise the heterogeneous
// x86+ARM testbed, joined by the flat pipe. The ARM machine's power model
// carries the paper's McPAT FinFET projection.
func TestbedFor(p Policy) (*kernel.Cluster, []power.Model) {
	arches := []isa.Arch{isa.X86, isa.ARM64}
	if p.x86Machines > 0 {
		arches = make([]isa.Arch, p.x86Machines) // all isa.X86, the zero Arch
	}
	cl := kernel.NewCluster(arches, kernel.DefaultInterconnect())
	return cl, power.DefaultModels(cl, true)
}

// RackArches returns the canonical n-node heterogeneous rack shape: the
// first ceil(n/2) machines are x86 servers, the rest ARM microservers —
// the 4-node rack-scale experiment's [x86, x86, arm, arm] generalised.
func RackArches(n int) []isa.Arch {
	arches := make([]isa.Arch, n)
	for i := range arches {
		if i < (n+1)/2 {
			arches[i] = isa.X86
		} else {
			arches[i] = isa.ARM64
		}
	}
	return arches
}
