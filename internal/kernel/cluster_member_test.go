// Detector-based failure detection end to end: the SWIM service infers a
// crash from probe silence, the declared death strands and restores the
// process, incarnation bumps refute false positives, and the RecoverNode
// path aborts captures pending across the transition.
package kernel_test

import (
	"errors"
	"testing"

	"heterodc/internal/ckpt"
	"heterodc/internal/core"
	"heterodc/internal/fault"
	"heterodc/internal/kernel"
	"heterodc/internal/member"
	"heterodc/internal/sim"
	"heterodc/internal/topo"
	"heterodc/internal/trace"
)

// workOnNode1Src migrates to node 1 and grinds there, printing a verifiable
// sum; node 1 is where the failures land. The call-bearing loop keeps the
// thread crossing migration points so periodic checkpoints can park it.
const workOnNode1Src = `
long chunk(long base) {
	long s = 0;
	for (long j = 0; j < 100; j++) {
		s += (base + j) % 7;
		s += (base * j) % 3;
	}
	return s;
}
long main(void) {
	migrate(1);
	long sum = 0;
	for (long i = 0; i < 12000; i++) { sum += chunk(i); }
	print_i64_ln(sum);
	return 0;
}`

// detectorRun is one detector-plus-checkpoint execution under a crash plan.
type detectorRun struct {
	cl   *kernel.Cluster
	svc  *member.Service
	mgr  *ckpt.Manager
	p    *kernel.Process // the original incarnation
	log  *trace.EventLog
	cfg  member.Config
	tRef float64
}

func startDetectorRun(t *testing.T, plan fault.Plan, ref float64) *detectorRun {
	t.Helper()
	img, err := core.Build("t", core.Src("t.c", workOnNode1Src))
	if err != nil {
		t.Fatal(err)
	}
	cl := core.NewTestbed()
	cl.InjectFaults(plan)
	log := trace.NewEventLog(4096)
	cl.SetTracer(log)
	mgr := ckpt.NewManager(cl)
	cfg := member.Config{HeartbeatPeriod: ref / 40}
	svc, err := member.Attach(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cl.Spawn(img, core.NodeX86)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Track(p, img, kernel.CkptPolicy{EverySeconds: ref / 8})
	return &detectorRun{cl: cl, svc: svc, mgr: mgr, p: p, log: log, cfg: cfg, tRef: ref}
}

// wait runs the job to its exit and returns its final incarnation.
func (r *detectorRun) wait() (*kernel.Process, error) {
	finals, err := core.Drive(r.cl, r.mgr, []core.Job{{P: r.p}}, nil)
	if err != nil {
		return nil, err
	}
	return finals[0], finals[0].Err()
}

func refSeconds(t *testing.T) float64 {
	t.Helper()
	img, err := core.Build("t", core.Src("t.c", workOnNode1Src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(img, core.NodeX86)
	if err != nil {
		t.Fatal(err)
	}
	return res.Seconds
}

func TestDetectorDeclaresPermanentCrashAndRestores(t *testing.T) {
	ref := refSeconds(t)
	crashAt := 0.4 * ref
	r := startDetectorRun(t, fault.Plan{
		Crashes: []fault.Crash{{Node: 1, At: crashAt, RecoverAt: 0}},
	}, ref)

	final, err := r.wait()
	if err != nil {
		t.Fatalf("job never finished despite detector + restore: %v", err)
	}
	if _, code := final.Exited(); code != 0 {
		t.Fatalf("final incarnation exited %d", code)
	}
	// The original incarnation was killed by the declared death, not an
	// application failure.
	if !errors.Is(r.p.Err(), kernel.ErrNodeLost) {
		t.Errorf("original incarnation error = %v, want ErrNodeLost", r.p.Err())
	}
	st := r.svc.Stats()
	if st.Deaths != 1 || st.Suspicions == 0 {
		t.Fatalf("detector stats %+v, want exactly one death", st)
	}
	// Failure was inferred, not read from the oracle: the verdict comes
	// after the crash by at least the suspicion timeout.
	d := r.svc.Deaths()[0]
	if d.Node != 1 || d.At < crashAt+r.cfg.HeartbeatPeriod {
		t.Errorf("death record %+v: detection latency missing (crash at %g)", d, crashAt)
	}
	if r.mgr.Stats().Restores == 0 {
		t.Error("no checkpoint restore followed the death verdict")
	}
	if fenced, stale := r.cl.FenceStats(); stale != 0 {
		t.Errorf("%d stale-incarnation messages delivered unfenced (%d fenced)", stale, fenced)
	}
	if r.log.Count("declare-dead") == 0 || r.log.Count("proc-lost") == 0 {
		t.Errorf("trace missing declare-dead/proc-lost events:\n%s", r.log)
	}
}

func TestFalsePositiveRejoinsUnderBumpedIncarnation(t *testing.T) {
	ref := refSeconds(t)
	crashAt := 0.4 * ref
	// The outage outlives the detector's patience (~10 heartbeat periods =
	// 0.25*ref), so node 1 is declared dead mid-outage — wrongly: it
	// recovers later with its memory intact.
	r := startDetectorRun(t, fault.Plan{
		Crashes: []fault.Crash{{Node: 1, At: crashAt, RecoverAt: crashAt + 0.35*ref}},
	}, ref)

	final, err := r.wait()
	if err != nil {
		t.Fatalf("job never finished: %v", err)
	}
	if _, code := final.Exited(); code != 0 {
		t.Fatalf("final incarnation exited %d", code)
	}
	st := r.svc.Stats()
	if st.Deaths != 1 {
		t.Fatalf("detector stats %+v, want exactly one (false) death", st)
	}
	// The orphan was reaped: the first incarnation is dead even though its
	// node came back.
	if exited, _ := r.p.Exited(); !exited {
		t.Fatal("orphan process still live after the false declaration")
	}
	if !errors.Is(r.p.Err(), kernel.ErrNodeLost) {
		t.Errorf("orphan error = %v, want ErrNodeLost", r.p.Err())
	}
	if r.mgr.Stats().Restores == 0 {
		t.Error("no restore followed the (false) death verdict")
	}
	// The node rejoined under a bumped incarnation and refuted the death.
	if inc := r.cl.Incarnation(1); inc != 2 {
		t.Errorf("node 1 incarnation = %d after rejoin, want 2", inc)
	}
	if st.FalseSuspicions == 0 || st.Readmissions == 0 {
		t.Errorf("death never refuted after recovery: %+v", st)
	}
	if r.svc.View(0, 1) != member.Alive {
		t.Errorf("node 0 still views rejoined node 1 as %v", r.svc.View(0, 1))
	}
	if _, stale := r.cl.FenceStats(); stale != 0 {
		t.Errorf("%d stale-incarnation messages delivered unfenced", stale)
	}
}

// joinAcrossCrashSrc splits work between the nodes: main grinds on node 1,
// a worker on node 0, then main joins it.
const joinAcrossCrashSrc = `
long chunk(long base) {
	long s = 0;
	for (long j = 0; j < 100; j++) {
		s += (base + j) % 7;
		s += (base * j) % 3;
	}
	return s;
}
long worker(long arg) {
	long sum = 0;
	for (long i = 0; i < 20000; i++) { sum += chunk(i); }
	return sum;
}
long main(void) {
	long w = spawn(worker, 0);
	migrate(1);
	long sum = 0;
	for (long i = 0; i < 12000; i++) { sum += chunk(i + 1); }
	print_i64_ln(sum + join(w));
	return 0;
}`

// runRecoverDuringCapture drives the RecoverNode-during-capture scenario on
// one engine: node 1 crashes with main frozen there, a one-shot checkpoint
// is requested mid-outage (the worker parks, main cannot), and the recovery
// must abort-and-release the capture rather than let it complete against a
// quiesce set computed across the transition.
func runRecoverDuringCapture(t *testing.T, engine string, ref float64) (*core.Result, int, int) {
	t.Helper()
	img, err := core.Build("t", core.Src("t.c", joinAcrossCrashSrc))
	if err != nil {
		t.Fatal(err)
	}
	cl := core.NewTestbed()
	if engine == "par" {
		cl.UseParallelEngine(0)
	}
	log := trace.NewEventLog(1024)
	cl.SetTracer(log)
	// The worker grinds on node 0 well past the recovery, so the cluster
	// stays busy and Run stops at the request point instead of skipping
	// ahead to the next control event.
	crashAt, recoverAt := 0.3*ref, 0.5*ref
	cl.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Node: 1, At: crashAt, RecoverAt: recoverAt}}})
	images := 0
	cl.OnCheckpoint = func(kernel.CheckpointEvent) { images++ }
	p, err := cl.Spawn(img, core.NodeX86)
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(0.4 * ref)
	if !cl.NodeDown(1) {
		t.Fatalf("%s: node 1 not down at the request point", engine)
	}
	if err := cl.RequestCheckpoint(p); err != nil {
		t.Fatal(err)
	}
	res, err := core.Wait(cl, p)
	if err != nil {
		t.Fatalf("%s: %v", engine, err)
	}
	return res, images, log.Count("ckpt-skip")
}

func TestRecoverNodeAbortsPendingCaptureBothEngines(t *testing.T) {
	img, err := core.Build("t", core.Src("t.c", joinAcrossCrashSrc))
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.Run(img, core.NodeX86)
	if err != nil {
		t.Fatal(err)
	}
	ref := base.Seconds

	seqRes, seqImages, seqSkips := runRecoverDuringCapture(t, "seq", ref)
	parRes, parImages, parSkips := runRecoverDuringCapture(t, "par", ref)

	if seqImages != 0 {
		t.Errorf("a capture completed across the outage (%d images); recovery must abort it", seqImages)
	}
	if seqSkips == 0 {
		t.Error("no ckpt-skip trace event: the abort-and-release path never ran")
	}
	if seqRes.ExitCode != 0 || string(seqRes.Output) != string(base.Output) {
		t.Errorf("run diverged from fault-free baseline: exit %d output %q want %q",
			seqRes.ExitCode, seqRes.Output, base.Output)
	}
	if string(seqRes.Output) != string(parRes.Output) || seqRes.ExitCode != parRes.ExitCode ||
		seqRes.Seconds != parRes.Seconds || seqImages != parImages || seqSkips != parSkips {
		t.Errorf("engines diverge: seq exit=%d %q %.9fs images=%d skips=%d; par exit=%d %q %.9fs images=%d skips=%d",
			seqRes.ExitCode, seqRes.Output, seqRes.Seconds, seqImages, seqSkips,
			parRes.ExitCode, parRes.Output, parRes.Seconds, parImages, parSkips)
	}
}

// TestHorizonIsTheMembershipQuietBit: with every layer that once pinned or
// bounded the parallel engine installed at the same time — a tracer, a
// fat-tree fabric, a timer source, a process-lost handler and a SWIM
// service — the cluster's Horizon still says "unconstrained" (control
// events are the engine's barriers, not the model's hazard). The one
// collapse left is a membership service that is not quiet: Horizon answers
// NegInf from the first suspicion until the suspect is readmitted and the
// suspicion gossip has drained.
func TestHorizonIsTheMembershipQuietBit(t *testing.T) {
	cl, fab, err := kernel.NewClusterTopo(mixedArches(6), kernel.DefaultInterconnect(), topo.FatTree(3, 4))
	if err != nil || fab == nil {
		t.Fatalf("fat-tree cluster: fabric %v, err %v", fab, err)
	}
	cl.UseParallelEngine(0)
	cl.SetTracer(trace.NewEventLog(4096))
	cl.OnProcessLost = func(*kernel.Process, int) {}
	cl.SetTimerSource(&spawner{cl: cl, next: 1, left: 1}) // armed, due far past this test
	svc, err := member.Attach(cl, member.Config{HeartbeatPeriod: 1e-3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	horizon := func() float64 { return cl.Horizon(cl.Time()) }

	cl.Run(5e-3)
	if !svc.Quiet() || horizon() != sim.Inf {
		t.Fatalf("healthy fleet: quiet=%v horizon=%g, want quiet and sim.Inf", svc.Quiet(), horizon())
	}

	cl.CrashNode(2)
	for until := cl.Time() + 20e-3; svc.Quiet(); {
		if !cl.Step() || cl.Time() > until {
			t.Fatal("the crash never made the detector loud")
		}
	}
	if horizon() != sim.NegInf {
		t.Fatalf("loud detector: horizon=%g, want sim.NegInf", horizon())
	}

	// Back before anyone reaches a verdict: a death is never forgotten, a
	// refuted suspicion is.
	cl.RecoverNode(2)
	for until := cl.Time() + 100e-3; !svc.Quiet(); {
		if !cl.Step() || cl.Time() > until {
			t.Fatalf("the detector never went quiet again: %+v", svc.Stats())
		}
	}
	if st := svc.Stats(); len(svc.Deaths()) != 0 || st.Suspicions == 0 || st.Readmissions == 0 {
		t.Fatalf("deaths %+v, stats %+v: want a suspicion refuted by readmission and no death", svc.Deaths(), st)
	}
	if horizon() != sim.Inf {
		t.Fatalf("readmitted: horizon=%g, want sim.Inf", horizon())
	}
}
