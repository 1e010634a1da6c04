package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"heterodc/internal/kernel"
	"heterodc/internal/msg"
	"heterodc/internal/sim"
	"heterodc/internal/trace"
)

// workload is one named set of inputs. setup does everything that is paid
// once per run (building images from source, reference runs, generating
// the scenario from the seed) and returns the op: one unit of fixed work
// that builds its own clusters, runs them and checks their outputs.
type workload struct {
	name  string
	why   string
	setup func(seed uint64) (func(c *opCtx) error, error)
}

var workloads = []workload{
	{"interp", "NPB EP/IS/CG class A on one x86 and one ARM machine: machine, cache and mem do all the work", setupInterp},
	{"flagship", "BENCH_engine.json's scenario on seq then par: busy nodes, so StepNode dominates and seq/par is the scaling number", setupFlagship},
	{"idle_fleet", "256 nodes, SWIM at 1 ms, no processes, one crash: engine scans, Horizon/Groups, RunDue and routing are the whole cost", setupIdleFleet},
	{"migrate", "bounce, DSM ping-pong and a checkpointed container move: xform, dsm, msg and ckpt work, little straight-line code", setupMigrate},
	{"storm", "open-loop jobs under a seeded chaos storm on seq then par: sched, traffic, fault, ckpt and non-quiet membership together", setupStorm},
	{"toolchain", "build 36 NPB images through minic, compiler and link: no simulated time, so runtime optimisations must leave it flat", setupToolchain},
}

// opCtx is what an op reports into. Counters and simulated statistics go
// to counts (they repeat exactly for a seed); the engine totals feed the
// rate metrics; tr is nil on the untraced ops that alone produce the
// end-to-end numbers.
type opCtx struct {
	tr     *tracer
	opSpan int

	seq, par engineTotals       // per-engine host time, quanta, simulated seconds
	makespan float64            // simulated seconds to finish the fixed work on seq
	rounds   float64            // membership protocol rounds run on seq, summed over nodes
	counts   map[string]float64 // per-layer counts and simulated results
	simStats []string           // what sim_fingerprint hashes, in op order
	models   []*tracedModel     // traced runs only
	msgStats msg.Stats
	keep     []interface{} // clusters kept reachable until live heap is read
}

type engineTotals struct {
	wall   float64
	quanta uint64
	instrs uint64
	simSec float64
}

func newOpCtx(tr *tracer) *opCtx {
	c := &opCtx{tr: tr, counts: map[string]float64{}}
	if tr != nil {
		c.opSpan = tr.begin("op", 0)
	}
	return c
}

// note records a simulated statistic in the fingerprint and, under name,
// in the per-layer counts.
func (c *opCtx) note(name string, v float64) {
	c.counts[name] += v
	c.simStats = append(c.simStats, fmt.Sprintf("%s=%v", name, v))
}

// stage times fn as a span under the op when tracing.
func (c *opCtx) stage(name string, fn func()) { c.tr.stage(name, c.opSpan, fn) }

// engineRun is one cluster driven by one engine inside an op.
type engineRun struct {
	c     *opCtx
	cl    *kernel.Cluster
	eng   string
	model *tracedModel
}

// engine installs the named time engine ("seq" or "par") on cl, as the
// studies do: call it right after the cluster and its topology exist.
// Untraced, that is the production path (the lazy sequential default, or
// UseParallelEngine); traced, the same engine schedules the decorator.
func (c *opCtx) engine(cl *kernel.Cluster, eng string) *engineRun {
	r := &engineRun{c: c, cl: cl, eng: eng}
	c.keep = append(c.keep, cl)
	switch {
	case c.tr != nil:
		r.model = c.tr.trace(cl, c.opSpan)
		c.models = append(c.models, r.model)
		r.model.eng = eng
		if eng == "par" {
			cl.SetEngine(sim.NewParallel(r.model, sim.Options{LookaheadSec: cl.IC.MinLatency()}))
		} else {
			cl.SetEngine(sim.NewSequential(r.model))
		}
	case eng == "par":
		cl.UseParallelEngine(0)
	}
	return r
}

// drive times fn — the stepping loop — and adds the cluster's totals to
// the op. Host time outside drive (construction, output checks) counts in
// wall_s but not in the per-engine rates.
func (r *engineRun) drive(fn func() error) error {
	c := r.c
	var id int
	if c.tr != nil {
		id = c.tr.begin(r.eng, c.opSpan)
		r.model.parent = id
	}
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	if c.tr != nil {
		c.tr.end(id)
		r.model.finish()
		r.model.wall = wall
	}
	tot := &c.seq
	if r.eng == "par" {
		tot = &c.par
	}
	tot.wall += wall
	tot.quanta += r.cl.Quanta()
	tot.simSec += r.cl.Time()
	for _, k := range r.cl.Kernels {
		tot.instrs += k.InstrsRetired
	}
	st := r.cl.IC.Stats()
	c.msgStats.Messages += st.Messages
	c.msgStats.Bytes += st.Bytes
	c.msgStats.Retries += st.Retries
	c.msgStats.Dropped += st.Dropped
	return err
}

// runToExit steps cl until p exits and checks the guest: exit code 0 and
// output equal to want.
func runToExit(cl *kernel.Cluster, p *kernel.Process, what, want string) error {
	code, err := cl.RunProcess(p)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return checkGuest(what, code, p.Output(), want)
}

func checkGuest(what string, code int64, got []byte, want string) error {
	if code != 0 {
		return fmt.Errorf("%s: guest exited %d", what, code)
	}
	if string(got) != want {
		return fmt.Errorf("%s: guest output %q, want %q", what, got, want)
	}
	return nil
}

// cpuSeconds is the CPU time (user + system) the process has used so far,
// on every thread: above wall time when the parallel engine's pool keeps
// a second core busy.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// sample is one timed op.
type sample struct {
	wall, cpu, allocs, allocMB, liveMB float64
	ctx                                *opCtx
}

// measure runs op once between two GCs and reads the allocator deltas.
// The op's clusters stay reachable through the returned context until the
// live heap has been read.
func measure(op func(*opCtx) error, tr *tracer) (sample, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := newOpCtx(tr)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	err := op(c)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	if tr != nil {
		tr.end(c.opSpan)
	}
	runtime.ReadMemStats(&after)
	s := sample{
		wall:    wall,
		cpu:     cpu,
		allocs:  float64(after.Mallocs - before.Mallocs),
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		ctx:     c,
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	s.liveMB = float64(after.HeapAlloc) / 1e6
	runtime.KeepAlive(c)
	c.keep = nil
	return s, err
}

// result is everything one workload run produced.
type result struct {
	Workload       string             `json:"workload"`
	Ops            int                `json:"ops"`
	Failed         int                `json:"failed"`
	SimFingerprint string             `json:"sim_fingerprint"`
	Metrics        map[string]float64 `json:"metrics"`
	// Samples holds the per-op (for setup_s: per-repetition) values behind
	// each end-to-end median, so -compare can judge spread.
	Samples  map[string][]float64 `json:"samples"`
	Failures []string             `json:"failures,omitempty"`
	spans    []span
}

// Set-up is repeated until setupBudget host seconds have gone into it, at
// least setupMinReps and at most setupMaxReps times, so that setup_s is a
// median over many repetitions where set-up is cheap.
const (
	setupBudget  = 2.0
	setupMinReps = 3
	setupMaxReps = 50
)

// options are the run-shape flags.
type options struct {
	seed    uint64
	seconds float64
	ops     int // > 0: exactly this many timed ops instead of filling seconds
	trace   bool
}

func median(xs []float64) float64 { return trace.Summarize(xs).Median }

// runWorkload measures one workload: set-up (repeated, timed), one untimed
// warm-up op, the timed untraced ops, then — with tracing — traced ops
// whose spans give the per-layer numbers.
func runWorkload(w workload, o options, probes map[string]float64) (*result, error) {
	res := &result{Workload: w.name, Metrics: map[string]float64{}, Samples: map[string][]float64{}}
	// Live heap is counted from here, so that in a suite run a workload is
	// not charged what earlier workloads left behind.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapBase := float64(ms.HeapAlloc) / 1e6
	var op func(*opCtx) error
	for spent, i := 0.0, 0; i < setupMinReps || (spent < setupBudget && i < setupMaxReps); i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if op, err = w.setup(o.seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		d := time.Since(t0).Seconds()
		spent += d
		res.Samples["setup_s"] = append(res.Samples["setup_s"], d)
	}
	res.Metrics["setup_s"] = median(res.Samples["setup_s"])

	fail := func(err error) {
		res.Failed++
		res.Failures = append(res.Failures, err.Error())
	}
	// Warm-up: lazy initialisation and heap growth happen here, untimed. A
	// failure is reported but is not one of the attempted ops.
	if _, err := measure(op, nil); err != nil {
		res.Failures = append(res.Failures, "warm-up op: "+err.Error())
	}

	budget := o.seconds
	if o.trace {
		budget = o.seconds / 2 // the traced ops get the other half
	}
	var last *opCtx
	var seq, par engineTotals
	var wallSum float64
	start := time.Now()
	for n := 0; ; n++ {
		if o.ops > 0 && n >= o.ops {
			break
		}
		if o.ops <= 0 && n >= 3 && time.Since(start).Seconds() >= budget {
			break
		}
		s, err := measure(op, nil)
		res.Ops++
		if err != nil {
			fail(err)
			continue
		}
		res.Samples["wall_s"] = append(res.Samples["wall_s"], s.wall)
		res.Samples["cpu_s"] = append(res.Samples["cpu_s"], s.cpu)
		res.Samples["allocs_per_op"] = append(res.Samples["allocs_per_op"], s.allocs)
		res.Samples["alloc_mb_per_op"] = append(res.Samples["alloc_mb_per_op"], s.allocMB)
		res.Samples["live_heap_mb"] = append(res.Samples["live_heap_mb"], s.liveMB-heapBase)
		c := s.ctx
		wallSum += s.wall
		seq.add(c.seq)
		par.add(c.par)
		last = c
	}
	if last == nil {
		return res, nil
	}
	for _, name := range []string{"wall_s", "cpu_s", "allocs_per_op", "alloc_mb_per_op"} {
		res.Metrics[name] = median(res.Samples[name])
	}
	// The first op's live heap, not the largest: if ops leak (a cluster the
	// parallel engine's idle workers still hold), the heap grows with the
	// number of ops, which depends on how fast the host is. The growth is
	// its own metric.
	live := res.Samples["live_heap_mb"]
	res.Metrics["live_heap_mb"] = live[0]
	if n := len(live); n > 1 {
		res.Metrics["heap_growth_mb_per_op"] = (live[n-1] - live[0]) / float64(n-1)
	}
	res.Samples["live_heap_mb"] = live[:1]
	res.Metrics["sim_mips"] = float64(seq.instrs+par.instrs) / wallSum / 1e6
	res.Metrics["simsec_per_s"] = ratio(seq.simSec, seq.wall)
	res.Metrics["seq_quanta_per_s"] = ratio(float64(seq.quanta), seq.wall)
	res.Metrics["par_quanta_per_s"] = ratio(float64(par.quanta), par.wall)
	res.Metrics["sim_makespan_s"] = last.makespan
	res.Metrics["msg.messages"] = float64(last.msgStats.Messages)
	res.Metrics["msg.bytes"] = float64(last.msgStats.Bytes)
	res.Metrics["msg.retries"] = float64(last.msgStats.Retries)
	res.Metrics["msg.dropped"] = float64(last.msgStats.Dropped)
	for k, v := range last.counts {
		res.Metrics[k] = v
	}
	res.SimFingerprint = fingerprint(last)

	if !o.trace {
		return res, nil
	}
	// Each traced op gets its own tracer; the first one's spans are the
	// trace file, the per-layer times are medians over all of them.
	var traced []float64
	layer := map[string][]float64{}
	for n := 0; n == 0 || (o.ops <= 0 && time.Since(start).Seconds() < 0.9*o.seconds); n++ {
		tr := newTracer(n + 1)
		s, err := measure(op, tr)
		if err != nil {
			fail(fmt.Errorf("traced op: %w", err))
			continue
		}
		traced = append(traced, s.wall)
		for k, v := range layerTimes(tr, s.ctx) {
			layer[k] = append(layer[k], v)
		}
		if fp := fingerprint(s.ctx); fp != res.SimFingerprint {
			fail(fmt.Errorf("traced op changed the simulated statistics: fingerprint %s, untraced %s", fp, res.SimFingerprint))
		}
		if res.spans == nil {
			res.spans = tr.all()
		}
	}
	for k, v := range layer {
		res.Metrics[k] = median(v)
	}
	if len(traced) > 0 {
		res.Metrics["trace_overhead_frac"] = (median(traced) - res.Metrics["wall_s"]) / res.Metrics["wall_s"]
	}
	for k, v := range probes {
		res.Metrics[k] = v
	}
	// The share of seq's kernel.step time that the bare interpreter does not
	// explain. The probe's ns/instr is the ballast's instruction mix, so
	// this is exact for no guest and closest on interp's straight-line code.
	perInstr := (probes["machine.x86_ns_per_instr"] + probes["machine.arm_ns_per_instr"]) / 2
	if step := res.Metrics["kernel.step_s"]; step > 0 {
		res.Metrics["kernel.overhead_frac"] = 1 - perInstr*1e-9*float64(last.seq.instrs)/step
	}
	return res, nil
}

func (t *engineTotals) add(o engineTotals) {
	t.wall += o.wall
	t.quanta += o.quanta
	t.instrs += o.instrs
	t.simSec += o.simSec
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fingerprint hashes an op's simulated statistics. A change meant only to
// speed the simulator up must leave it identical.
func fingerprint(c *opCtx) string {
	h := sha256.New()
	fmt.Fprintf(h, "instrs=%d seq=%d/%v par=%d/%v makespan=%v msg=%+v\n",
		c.seq.instrs+c.par.instrs, c.seq.quanta, c.seq.simSec, c.par.quanta, c.par.simSec, c.makespan, c.msgStats)
	for _, s := range c.simStats {
		fmt.Fprintln(h, s)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// layerTimes turns one traced op into the host-time per-layer metrics: the
// decorator's StepNode/ApplyEvent/Groups/Horizon totals, the engine's self
// time (engine-run span minus the model-call spans under it, on seq), and
// the duration of every harness stage span, keyed by its name.
func layerTimes(tr *tracer, c *opCtx) map[string]float64 {
	out := map[string]float64{}
	var seqWall, seqInside float64
	var busyN, idleN, scans, groupsN, groupsSum, groupsMulti, events uint64
	var busyNs, idleNs int64
	for _, m := range c.models {
		var stepNs, eventNs int64
		for i := range m.nodes {
			sh := &m.nodes[i]
			stepNs += sh.busyNs + sh.idleNs
			eventNs += sh.eventNs
			events += sh.eventN
			scans += m.scans[i]
			busyN, idleN = busyN+sh.busyN, idleN+sh.idleN
			busyNs, idleNs = busyNs+sh.busyNs, idleNs+sh.idleNs
		}
		step, event := float64(stepNs)/1e9, float64(eventNs)/1e9
		for _, s := range m.barrier {
			if s.Name == "sim.Groups" {
				out["sim.groups_s"] += s.seconds()
			} else {
				out["sim.horizon_s"] += s.seconds()
				out["sim.horizon_calls"]++
			}
		}
		groupsN, groupsSum, groupsMulti = groupsN+m.groupsN, groupsSum+m.groupsSum, groupsMulti+m.groupsMulti
		if m.eng == "seq" {
			out["kernel.step_s"] += step
			out["kernel.event_s"] += event
			seqWall += m.wall
			seqInside += step + event
		}
	}
	quanta := busyN + idleN
	out["kernel.quanta"] = float64(quanta)
	out["kernel.events"] = float64(events)
	out["kernel.busy_quantum_ns"] = ratio(float64(busyNs), float64(busyN))
	out["kernel.idle_quantum_ns"] = ratio(float64(idleNs), float64(idleN))
	out["kernel.instrs_per_quantum"] = ratio(float64(c.seq.instrs+c.par.instrs), float64(busyN))
	out["member.round_us"] = ratio(out["kernel.event_s"]*1e6, c.rounds)
	out["sim.self_s"] = seqWall - seqInside
	out["sim.self_frac"] = ratio(seqWall-seqInside, seqWall)
	out["sim.groups_calls"] = float64(groupsN)
	out["sim.scan_calls_per_quantum"] = ratio(float64(scans), float64(quanta))
	out["sim.mean_groups"] = ratio(float64(groupsSum), float64(groupsN))
	out["sim.fanout_frac"] = ratio(float64(groupsMulti), float64(groupsN))
	for _, s := range tr.main {
		if sm, ok := stageMetric[s.Name]; ok {
			out[sm.metric] += s.seconds() * sm.scale
		}
	}
	return out
}

// stageMetric maps a harness stage span — a timed call into one layer's
// public function — to the per-layer metric its total duration feeds.
var stageMetric = map[string]struct {
	metric string
	scale  float64
}{
	"minic.CompileToIR":   {"minic.ir_s", 1},
	"compiler.Compile":    {"compiler.compile_s", 1},
	"link.Link":           {"link.link_s", 1},
	"ckpt.Encode":         {"ckpt.encode_us", 1e6},
	"ckpt.Decode":         {"ckpt.decode_us", 1e6},
	"ckpt.RestoreProcess": {"ckpt.restore_us", 1e6},
}

// spanTotals sums span durations by name (written beside the raw spans).
func spanTotals(spans []span) map[string]float64 {
	tot := map[string]float64{}
	for _, s := range spans {
		tot[s.Name] += s.seconds()
	}
	return tot
}
