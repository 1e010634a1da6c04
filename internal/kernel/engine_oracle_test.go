// The engine oracle: every scenario below runs twice in lockstep — once on
// an engine the cluster feeds with change reports (what production runs),
// once on the same engine left unfed, which re-reads every node after every
// action and drags every drained clock eagerly, exactly as the scanning
// engines did. After every Step both clusters must agree on which nodes
// acted, on every clock and on every ReadyTime and NextEvent, their
// OnAdvance observers must have seen the same frontiers, and the fed
// engine's cached keys must equal what the model would answer
// (sim.Feed.Audit). A write site that forgets to report fails the audit at
// the very step the key goes stale.
package kernel_test

import (
	"fmt"
	"sync"
	"testing"

	"heterodc/internal/ckpt"
	"heterodc/internal/core"
	"heterodc/internal/fault"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/link"
	"heterodc/internal/member"
	"heterodc/internal/msg"
	"heterodc/internal/sim"
	"heterodc/internal/topo"
)

const oracleChunk = `
long chunk(long base) {
	long s = 0;
	for (long j = 0; j < 40; j++) {
		s += (base + j) % 7;
		s += (base * j) % 3;
	}
	return s;
}`

// Programs the scenarios run, built once.
var oracleSrcs = map[string]string{
	// There and back, with work at each stop.
	"tour": oracleChunk + `
long main(void) {
	long sum = 0;
	for (long i = 0; i < 60; i++) { sum += chunk(i); }
	migrate(1);
	for (long i = 0; i < 600; i++) { sum += chunk(i); }
	migrate(0);
	for (long i = 0; i < 60; i++) { sum += chunk(i); }
	print_i64_ln(sum);
	return 0;
}`,
	// Settles on node 1 and grinds there; call-bearing, so checkpoints can
	// park it.
	"grind": oracleChunk + `
long main(void) {
	migrate(1);
	long sum = 0;
	for (long i = 0; i < 1500; i++) { sum += chunk(i); }
	print_i64_ln(sum);
	return 0;
}`,
	"blip": `
long main(void) {
	long s = 0;
	for (long i = 0; i < 400; i++) { s += i % 5; }
	return s % 3;
}`,
	// The worker is in flight to node 1 when main exits the process: the
	// reap sweeps the interconnect.
	"orphan": `
long worker(long arg) {
	migrate(1);
	return getnode();
}
long main(void) {
	spawn(worker, 0);
	long spin = 0;
	for (long i = 0; i < 3000; i++) { spin += i; }
	exit(7);
	return spin;
}`,
	// The worker is busy on node 1 when main, on node 0, exits the process:
	// the reap frees a core of another node.
	"spread": `
long worker(long arg) {
	migrate(1);
	long spin = 0;
	for (long i = 0; i < 200000; i++) { spin += i % 3; }
	return spin;
}
long main(void) {
	spawn(worker, 0);
	long spin = 0;
	for (long i = 0; i < 60000; i++) { spin += i; }
	exit(7);
	return spin;
}`,
}

var (
	oracleImgOnce sync.Once
	oracleImgs    map[string]*link.Image
	oracleImgErr  error
)

func oracleImage(t *testing.T, name string) *link.Image {
	t.Helper()
	oracleImgOnce.Do(func() {
		oracleImgs = map[string]*link.Image{}
		for n, src := range oracleSrcs {
			img, err := core.Build(n, core.Src(n+".c", src))
			if err != nil {
				oracleImgErr = fmt.Errorf("build %s: %w", n, err)
				return
			}
			oracleImgs[n] = img
		}
	})
	if oracleImgErr != nil {
		t.Fatal(oracleImgErr)
	}
	return oracleImgs[name]
}

func mixedArches(n int) []isa.Arch {
	a := make([]isa.Arch, n)
	for i := range a {
		if i%2 == 1 {
			a[i] = isa.ARM64
		}
	}
	return a
}

// oracleScenario is one composition of layers. setup runs on a cluster
// whose engine is already attached (the order that needs every bulk edit to
// rebuild) and returns what the driver does between steps and the check
// that the scenario did what its name says.
type oracleScenario struct {
	name    string
	cluster func() *kernel.Cluster
	setup   func(t *testing.T, cl *kernel.Cluster) (between func(step int), check func() error)
	steps   int
}

// attachEngine puts a fresh engine of the given kind on cl, fed or not.
func attachEngine(cl *kernel.Cluster, par, fed bool) *sim.Feed {
	var e interface {
		sim.Engine
		Feed() *sim.Feed
	}
	if par {
		// A short epoch: more barriers, partitions and group indices per
		// simulated second than the default would give these small runs.
		e = sim.NewParallel(cl, sim.Options{EpochSec: 30e-6, LookaheadSec: cl.IC.MinLatency()})
	} else {
		e = sim.NewSequential(cl)
	}
	if fed {
		cl.SetEngine(e)
	} else {
		cl.AttachUnfed(e)
	}
	return e.Feed()
}

// disagreement compares what the engines can see of two clusters.
func disagreement(a, b *kernel.Cluster) string {
	for n := range a.Kernels {
		switch {
		case a.Kernels[n].Quanta != b.Kernels[n].Quanta:
			return fmt.Sprintf("node %d ran %d quanta, reference %d", n, a.Kernels[n].Quanta, b.Kernels[n].Quanta)
		case a.Now(n) != b.Now(n):
			return fmt.Sprintf("node %d clock %.9g, reference %.9g", n, a.Now(n), b.Now(n))
		case a.ReadyTime(n) != b.ReadyTime(n):
			return fmt.Sprintf("node %d ready %.9g, reference %.9g", n, a.ReadyTime(n), b.ReadyTime(n))
		case a.NextEvent(n) != b.NextEvent(n):
			return fmt.Sprintf("node %d next event %.9g, reference %.9g", n, a.NextEvent(n), b.NextEvent(n))
		}
	}
	return ""
}

// runOracle drives the scenario on both clusters and returns the first step
// at which they (or the fed engine's cache and its model) disagree, or -1.
// sabotage, if set, gets the fed cluster after setup to break a report.
func runOracle(t *testing.T, sc oracleScenario, par bool, sabotage func(cl *kernel.Cluster)) (int, string) {
	t.Helper()
	a, b := sc.cluster(), sc.cluster()
	feed := attachEngine(a, par, true)
	attachEngine(b, par, false)
	// The frontiers each cluster published: how many, and the latest.
	var seen [2]struct {
		n    int
		last float64
	}
	for i, cl := range []*kernel.Cluster{a, b} {
		s := &seen[i]
		cl.OnAdvance = func(f float64) { s.n, s.last = s.n+1, f }
	}
	betweenA, checkA := sc.setup(t, a)
	betweenB, _ := sc.setup(t, b)
	if sabotage != nil {
		sabotage(a)
	}
	for step := 0; step < sc.steps; step++ {
		okA, okB := a.Step(), b.Step()
		if okA != okB {
			return step, fmt.Sprintf("fed engine stepped=%v, reference stepped=%v", okA, okB)
		}
		if nd := feed.Audit(); nd >= 0 {
			return step, fmt.Sprintf("the engine's keys for node %d are stale: a write was not reported", nd)
		}
		if d := disagreement(a, b); d != "" {
			return step, d
		}
		if seen[0] != seen[1] {
			return step, fmt.Sprintf("%d frontiers published, the latest %.9g; reference %d, %.9g", seen[0].n, seen[0].last, seen[1].n, seen[1].last)
		}
		if !okA {
			if sabotage == nil {
				if err := checkA(); err != nil {
					t.Fatalf("%s: the scenario did not do what it says: %v", sc.name, err)
				}
			}
			return -1, ""
		}
		if betweenA != nil {
			betweenA(step)
			betweenB(step)
		}
	}
	t.Fatalf("%s: still running after %d steps", sc.name, sc.steps)
	return -1, ""
}

// midFlight runs the tour alone and returns an instant at which its
// migration to node 1 is on the wire: after the transformed state was sent,
// half a link latency before it lands.
func midFlight(t *testing.T, mk func() *kernel.Cluster) float64 {
	t.Helper()
	cl := mk()
	p, err := cl.Spawn(oracleImage(t, "tour"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for p.Thread(0).State != kernel.InFlight {
		if !cl.Step() {
			t.Fatal("tour finished without ever being in flight")
		}
	}
	lands, _ := cl.IC.NextDeliver(1)
	return lands - slowLink().LatencySec/2
}

// spawner is a timer source that starts a short program on a different
// node at every firing.
type spawner struct {
	cl     *kernel.Cluster
	img    *link.Image
	next   float64
	period float64
	left   int
	procs  []*kernel.Process
	nodes  map[int]bool
	err    error
}

func (s *spawner) NextDue() float64 {
	if s.left == 0 {
		return 1e30
	}
	return s.next
}

func (s *spawner) Fire(now float64) {
	s.next += s.period
	s.left--
	node := (s.left*3 + 1) % s.cl.NumNodes()
	p, err := s.cl.Spawn(s.img, node)
	if err != nil {
		s.err = err
		return
	}
	s.procs = append(s.procs, p)
	s.nodes[node] = true
}

// restorer is a timer source that, at its one firing, restores a
// checkpoint image onto a node with nothing to do — whose clock, on a fed
// engine, has been dragged without being written into its kernel.
type restorer struct {
	cl     *kernel.Cluster
	img    *link.Image
	image  []byte
	at     float64
	node   int
	p      *kernel.Process
	lifted bool // the node was drained and its clock a pending drag
	err    error
}

func (r *restorer) NextDue() float64 {
	if r.p != nil || r.err != nil {
		return 1e30
	}
	return r.at
}

func (r *restorer) Fire(float64) {
	r.lifted = r.cl.ReadyTime(r.node) >= 1e30 && r.cl.Now(r.node) > r.cl.OwnClock(r.node)
	snap, err := ckpt.Decode(r.image)
	if err == nil {
		r.p, err = r.cl.RestoreProcess(r.img, snap, r.node)
	}
	r.err = err
}

func slowLink() msg.Config {
	cfg := kernel.DefaultInterconnect()
	cfg.LatencySec = 40e-6 // a migration stays in flight for twenty quanta
	return cfg
}

func oracleScenarios(t *testing.T) []oracleScenario {
	slowPair := func() *kernel.Cluster { return kernel.NewCluster(mixedArches(2), slowLink()) }
	flat := func(n int) func() *kernel.Cluster {
		return func() *kernel.Cluster { return kernel.NewCluster(mixedArches(n), kernel.DefaultInterconnect()) }
	}
	onWire := midFlight(t, slowPair)
	res, err := core.Run(oracleImage(t, "grind"), 0)
	if err != nil {
		t.Fatal(err)
	}
	grind := res.Seconds // how long the grind runs undisturbed

	// A checkpoint of the grind, taken part way through on a pair.
	grindImage := func() []byte {
		cl := flat(2)()
		img := oracleImage(t, "grind")
		mgr := ckpt.NewManager(cl)
		p, err := cl.Spawn(img, 0)
		if err != nil {
			t.Fatal(err)
		}
		mgr.Track(p, img, kernel.CkptPolicy{EverySeconds: grind / 4})
		for mgr.Stats().ImagesWritten < 2 && cl.Step() {
		}
		if mgr.Stats().ImagesWritten < 2 {
			t.Fatal("the grind finished before its second checkpoint")
		}
		return mgr.LatestImage(p)
	}()
	fatTree := func(n int) func() *kernel.Cluster {
		return func() *kernel.Cluster {
			cl, _, err := kernel.NewClusterTopo(mixedArches(n), kernel.DefaultInterconnect(),
				topo.Spec{Kind: topo.KindFatTree, Racks: 4, Oversub: 4})
			if err != nil {
				t.Fatal(err)
			}
			return cl
		}
	}

	exitedOK := func(p *kernel.Process) error {
		if done, code := p.Exited(); !done || code != 0 || p.Err() != nil {
			return fmt.Errorf("pid %d: exited=%v code=%d err=%v", p.Pid, done, code, p.Err())
		}
		return nil
	}

	return []oracleScenario{
		{
			name:    "crash and recovery under an in-flight migration",
			cluster: slowPair,
			steps:   200000,
			setup: func(t *testing.T, cl *kernel.Cluster) (func(int), func() error) {
				cl.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Node: 1, At: onWire, RecoverAt: onWire + 400e-6}}})
				p, err := cl.Spawn(oracleImage(t, "tour"), 0)
				if err != nil {
					t.Fatal(err)
				}
				return nil, func() error {
					if cl.Kernels[0].MigrationsAborted == 0 {
						return fmt.Errorf("the crash did not catch the thread in flight")
					}
					return exitedOK(p)
				}
			},
		},
		{
			name:    "checkpoint restore onto another node from OnProcessLost",
			cluster: flat(3),
			steps:   400000,
			setup: func(t *testing.T, cl *kernel.Cluster) (func(int), func() error) {
				mgr := ckpt.NewManager(cl)
				cl.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Node: 1, At: grind / 2}}})
				img := oracleImage(t, "grind")
				p, err := cl.Spawn(img, 0)
				if err != nil {
					t.Fatal(err)
				}
				mgr.Track(p, img, kernel.CkptPolicy{EverySeconds: grind / 8})
				return nil, func() error {
					if n := mgr.Stats().Restores; n != 1 {
						return fmt.Errorf("%d restores, want 1", n)
					}
					if r := mgr.Restores()[0]; r.Node == 1 {
						return fmt.Errorf("restored onto the dead node: %+v", r)
					}
					return exitedOK(mgr.Current(p))
				}
			},
		},
		{
			name:    "a timer source spawning onto arbitrary nodes",
			cluster: flat(4),
			steps:   200000,
			setup: func(t *testing.T, cl *kernel.Cluster) (func(int), func() error) {
				s := &spawner{cl: cl, img: oracleImage(t, "blip"), next: 20e-6, period: 35e-6, left: 5, nodes: map[int]bool{}}
				if _, err := cl.Spawn(oracleImage(t, "grind"), 0); err != nil { // keeps the fleet stepping
					t.Fatal(err)
				}
				rearmed := false
				drive := func(step int) {
					// The driver installs the source once the run is under way,
					// and re-arms it once it has gone idle.
					if step == 1 {
						cl.SetTimerSource(s)
					}
					if step > 1 && s.left == 0 && !rearmed {
						rearmed = true
						s.left = 2
					}
					if rearmed && s.left == 1 {
						// ... and takes it away with a firing still due.
						cl.SetTimerSource(nil)
					}
				}
				return drive, func() error {
					if s.err != nil || len(s.procs) != 6 || s.left != 1 || len(s.nodes) < 3 {
						return fmt.Errorf("spawned %d programs on %d nodes with %d firings left (err %v)", len(s.procs), len(s.nodes), s.left, s.err)
					}
					for _, p := range s.procs {
						if done, _ := p.Exited(); !done {
							return fmt.Errorf("pid %d never finished", p.Pid)
						}
					}
					return nil
				}
			},
		},
		{
			name:    "SWIM through suspicion, verdict and rejoin",
			cluster: flat(5),
			steps:   400000,
			setup: func(t *testing.T, cl *kernel.Cluster) (func(int), func() error) {
				cl.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Node: 2, At: 0.6e-3, RecoverAt: 3.5e-3}}})
				svc, err := member.Attach(cl, member.Config{HeartbeatPeriod: 150e-6, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				p, err := cl.Spawn(oracleImage(t, "grind"), 0)
				if err != nil {
					t.Fatal(err)
				}
				stop := func(step int) {
					// Membership never drains a cluster; the run ends when the
					// job is done and the fleet has had time to readmit node 2.
					if done, _ := p.Exited(); done && cl.Time() > 6e-3 {
						cl.SetMembership(nil)
					}
				}
				return stop, func() error {
					if d := svc.Deaths(); len(d) != 1 || d[0].Node != 2 {
						return fmt.Errorf("deaths %+v, want node 2 declared once", d)
					}
					if cl.Incarnation(2) != 2 {
						return fmt.Errorf("node 2 is incarnation %d, want a rejoin as 2", cl.Incarnation(2))
					}
					for o := 0; o < 5; o++ {
						if o != 2 && svc.View(o, 2) != member.Alive {
							return fmt.Errorf("observer %d still holds node 2 %v", o, svc.View(o, 2))
						}
					}
					return exitedOK(p)
				}
			},
		},
		{
			name:    "a partition with queue surgery",
			cluster: flat(4),
			steps:   400000,
			setup: func(t *testing.T, cl *kernel.Cluster) (func(int), func() error) {
				cl.InjectFaults(fault.Plan{Seed: 9, Partitions: []fault.PartitionWindow{{GroupA: []int{3}, Start: 0.5e-3, HealAt: 1.6e-3}}})
				svc, err := member.Attach(cl, member.Config{HeartbeatPeriod: 120e-6, Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				p, err := cl.Spawn(oracleImage(t, "orphan"), 0)
				if err != nil {
					t.Fatal(err)
				}
				requeued, dropped, swept := 0, 0, 0
				crashed, recovered := false, false
				nextDrain, nextSweep := 0.0, 0.0
				surgery := func(step int) {
					// The driver does by hand what a crash or a reap does to
					// queues: pulls node 1's apart and puts half of it back later,
					// and now and then empties node 2's.
					if now := cl.Time(); now >= nextDrain && now < 3e-3 {
						nextDrain = now + 37e-6
						for _, m := range cl.IC.Drain(1) {
							if (dropped+requeued)%2 == 0 {
								dropped++
								continue
							}
							cl.IC.Requeue(m, m.Deliver+15e-6)
							requeued++
						}
					}
					if now := cl.Time(); now >= nextSweep && now < 3e-3 {
						nextSweep = now + 61e-6
						swept += cl.IC.Sweep([]int{2}, func(*msg.Message) bool { return true })
					}
					// And crashes and recovers a node itself, not by schedule.
					if !crashed && cl.Time() > 1.8e-3 {
						crashed = true
						cl.CrashNode(2)
					}
					if !recovered && cl.Time() > 2.4e-3 {
						recovered = true
						cl.RecoverNode(2)
					}
					if cl.Time() > 3.5e-3 {
						cl.SetMembership(nil)
					}
				}
				return surgery, func() error {
					if done, code := p.Exited(); !done || code != 7 {
						return fmt.Errorf("orphan exited=%v code=%d, want 7", done, code)
					}
					if requeued == 0 || dropped == 0 || swept == 0 || !recovered || svc.Stats().Suspicions == 0 {
						return fmt.Errorf("%d requeued, %d dropped, %d swept, recovered=%v, %d suspicions: the scenario stayed calm",
							requeued, dropped, swept, recovered, svc.Stats().Suspicions)
					}
					return nil
				}
			},
		},
		{
			name:    "a reap that frees another node's core",
			cluster: flat(2),
			steps:   400000,
			setup: func(t *testing.T, cl *kernel.Cluster) (func(int), func() error) {
				p, err := cl.Spawn(oracleImage(t, "spread"), 0)
				if err != nil {
					t.Fatal(err)
				}
				busyAtExit, frozen, thawed := false, false, false
				var frozenAt float64
				watch := func(step int) {
					if done, _ := p.Exited(); !done {
						busyAtExit = cl.Kernels[1].BusyCores() > 0
					}
					// The driver itself freezes the worker's node for a while:
					// no schedule, no membership, nothing else reports node 1.
					if !frozen && busyAtExit {
						frozen, frozenAt = true, cl.Time()
						cl.CrashNode(1)
					}
					if frozen && !thawed && cl.Time() > frozenAt+40e-6 {
						thawed = true
						cl.RecoverNode(1)
					}
				}
				return watch, func() error {
					if done, code := p.Exited(); !done || code != 7 {
						return fmt.Errorf("spread exited=%v code=%d, want 7", done, code)
					}
					if !busyAtExit || !thawed {
						return fmt.Errorf("worker running on node 1 when main exited: %v; node 1 frozen and thawed: %v", busyAtExit, thawed)
					}
					return nil
				}
			},
		},
		{
			// The benchmark suite's idle fleet in miniature: no guest work,
			// SWIM at 1 ms on a fat tree, one node crashing for good, so
			// almost every clock is a drained one the fed engine drags
			// lazily. A timer handler restores a checkpoint onto one of
			// them, reading its clock while the drag is still pending.
			name:    "an idle fleet with a crash and a restore onto a drained node",
			cluster: fatTree(32),
			steps:   400000,
			setup: func(t *testing.T, cl *kernel.Cluster) (func(int), func() error) {
				cl.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Node: 9, At: 6e-3}}})
				svc, err := member.Attach(cl, member.Config{HeartbeatPeriod: 1e-3, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				r := &restorer{cl: cl, img: oracleImage(t, "grind"), image: grindImage, at: 4e-3, node: 20}
				cl.SetTimerSource(r)
				stop := func(step int) {
					// Membership never drains a cluster; the run ends once the
					// crash has been declared and the restored job is done.
					if r.p != nil && len(svc.Deaths()) > 0 && cl.Time() > 16e-3 {
						if done, _ := r.p.Exited(); done {
							cl.SetMembership(nil)
						}
					}
				}
				return stop, func() error {
					if r.err != nil || r.p == nil || !r.lifted {
						return fmt.Errorf("restore: err %v, process %v, onto a lazily dragged clock: %v", r.err, r.p != nil, r.lifted)
					}
					if d := svc.Deaths(); len(d) != 1 || d[0].Node != 9 {
						return fmt.Errorf("deaths %+v, want node 9 declared once", d)
					}
					return exitedOK(r.p)
				}
			},
		},
	}
}

// TestFedEngineMatchesUnfedStepByStep is the oracle.
func TestFedEngineMatchesUnfedStepByStep(t *testing.T) {
	for _, sc := range oracleScenarios(t) {
		for _, par := range []bool{false, true} {
			eng := "seq"
			if par {
				eng = "par"
			}
			t.Run(sc.name+"/"+eng, func(t *testing.T) {
				if step, why := runOracle(t, sc, par, nil); step >= 0 {
					t.Fatalf("step %d: %s", step, why)
				}
			})
		}
	}
}

// TestOracleCatchesAnOmittedReport leaves one report out — the
// interconnect no longer says when node 1's delivery queue changes — and
// the oracle must fail at the step that first queues something for node 1,
// not when the schedule finally goes wrong.
func TestOracleCatchesAnOmittedReport(t *testing.T) {
	sc := oracleScenarios(t)[0]
	firstQueued := -1
	probe := sc.cluster()
	attachEngine(probe, false, true)
	sc.setup(t, probe)
	for step := 0; firstQueued < 0 && probe.Step(); step++ {
		if probe.IC.Pending(1) > 0 {
			firstQueued = step
		}
	}
	if firstQueued < 0 {
		t.Fatal("nothing was ever queued for node 1")
	}
	for _, par := range []bool{false, true} {
		step, why := runOracle(t, sc, par, func(cl *kernel.Cluster) {
			cl.IC.OnQueueChange(func(node int) {
				if node != 1 {
					cl.ReportChange(node)
				}
			})
		})
		if step < 0 {
			t.Fatalf("par=%v: the oracle passed although node 1's queue changes went unreported", par)
		}
		t.Logf("par=%v: caught at step %d: %s", par, step, why)
		if !par && step != firstQueued {
			t.Errorf("caught at step %d, but node 1's key went stale at step %d", step, firstQueued)
		}
	}
}
