package fuzz

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
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
)

// The engine-determinism suite replays the committed corpus under both time
// engines (sequential reference and conservative-parallel) and demands
// byte-identical observables: output, exit status, per-thread migration
// counts and the interconnect's full fault/retry counters. Unlike the
// oracle's modes, every driver here acts only at engine-defined points —
// spawn time, migration callbacks, control events and Run() boundaries —
// because those are the points the parallel engine reproduces exactly.
// (A driver that looks at the cluster between individual Step calls, as
// sched's closed-loop admission rule does to notice a freed slot, sees
// epoch-grained state under "par" and is exercised elsewhere; under the
// open-loop rule the same driver acts only in timer control events and gets
// its own engine-identity scenario in engine_fleet_test.go.)

// detRun is one execution's observables plus the interconnect counters.
type detRun struct {
	RunResult
	Stats msg.Stats
}

func detTestbed(engine string) *kernel.Cluster {
	cl := core.NewTestbed()
	if engine == "par" {
		cl.UseParallelEngine(0)
	}
	return cl
}

// detPlain runs the image on one node with no outside interference.
func detPlain(img *link.Image, node int, cap float64, engine string) detRun {
	cl := detTestbed(engine)
	p, err := cl.Spawn(img, node)
	if err != nil {
		return detRun{RunResult: RunResult{Mode: nodeName(node)}}
	}
	to := drive(cl, p, cap, nil)
	return detRun{finish(p, nodeName(node), to), cl.IC.Stats()}
}

// detBounce migrates the main thread at spawn and every thread again from
// each completed migration, entirely callback-driven.
func detBounce(img *link.Image, start int, cap float64, engine string) detRun {
	mode := "mig-" + nodeName(start)
	cl := detTestbed(engine)
	p, err := cl.Spawn(img, start)
	if err != nil {
		return detRun{RunResult: RunResult{Mode: mode}}
	}
	cl.OnMigration = func(ev kernel.MigrationEvent) {
		_ = cl.RequestMigration(p, ev.Tid, 1-ev.To)
	}
	_ = cl.RequestMigration(p, 0, 1-start)
	to := drive(cl, p, cap, nil)
	return detRun{finish(p, mode, to), cl.IC.Stats()}
}

// detChaos runs under a seeded lossy plan with a degraded window, a node-1
// outage and a process migration each way, probing only at Run boundaries.
func detChaos(img *link.Image, seed int64, refSec, cap float64, engine string) detRun {
	cl := detTestbed(engine)
	cl.InjectFaults(fault.Plan{
		Seed: seed, DropProb: 0.04, DupProb: 0.01, JitterSec: 2e-6,
		Windows: []fault.Window{{
			From: 0, To: 1, Start: 0.2 * refSec, End: 0.5 * refSec,
			DropProb: 0.25, JitterSec: 8e-6,
		}},
		Crashes: []fault.Crash{{Node: 1, At: 0.45 * refSec, RecoverAt: 0.5 * refSec}},
	})
	p, err := cl.Spawn(img, core.NodeX86)
	if err != nil {
		return detRun{RunResult: RunResult{Mode: "chaos"}}
	}
	cl.Run(0.3 * refSec)
	cl.RequestProcessMigration(p, core.NodeARM)
	cl.Run(0.65 * refSec)
	cl.RequestProcessMigration(p, core.NodeX86)
	to := drive(cl, p, cap, nil)
	return detRun{finish(p, "chaos", to), cl.IC.Stats()}
}

// detBallastSrc keeps node 0 busy for ~35 simulated milliseconds — long
// enough for a millisecond-scale failure detector to falsely declare node 1
// dead during a transient outage and then see the verdict refuted. Corpus
// programs run tens of microseconds, far below any usable heartbeat period,
// so they cannot carry the detector timeline themselves; they run alongside
// the ballast to vary the interleaving per seed.
const detBallastSrc = `
long chunk(long base) {
	long s = 0;
	for (long j = 0; j < 100; j++) {
		s += (base + j) % 7;
		s += (base * j) % 3;
	}
	return s;
}
long main(void) {
	long sum = 0;
	for (long i = 0; i < 10000; i++) { sum += chunk(i); }
	print_i64_ln(sum);
	return 0;
}`

var (
	detBallastOnce sync.Once
	detBallastImg  *link.Image
)

// detDetector runs the corpus program beside the ballast under the
// SWIM failure detector, a seeded lossy plan, and a transient node-1
// outage (8ms..20ms) that outlives the detector's patience (~5ms of
// silence at a 0.5ms period), so node 1 is falsely declared dead and later
// refutes the verdict under a bumped incarnation. After both processes
// finish, the cluster is drained so every in-flight heartbeat resolves and
// the receive-side counters are exit-order independent. Everything — run
// observables, interconnect counters including heartbeat traffic, and the
// detector's own statistics — must be byte-identical across engines.
func detDetector(img *link.Image, seed int64, cap float64, engine string) (detRun, RunResult, member.Stats, uint64) {
	fail := func() (detRun, RunResult, member.Stats, uint64) {
		return detRun{RunResult: RunResult{Mode: "detector"}}, RunResult{}, member.Stats{}, 0
	}
	detBallastOnce.Do(func() {
		detBallastImg, _ = core.Build("ballast", core.Src("ballast.c", detBallastSrc))
	})
	if detBallastImg == nil {
		return fail()
	}
	cl := detTestbed(engine)
	cl.InjectFaults(fault.Plan{
		Seed: seed, DropProb: 0.02, JitterSec: 1e-6,
		Crashes: []fault.Crash{{Node: 1, At: 8e-3, RecoverAt: 20e-3}},
	})
	svc, err := member.Attach(cl, member.Config{HeartbeatPeriod: 0.5e-3})
	if err != nil {
		return fail()
	}
	ballast, err := cl.Spawn(detBallastImg, core.NodeX86)
	if err != nil {
		return fail()
	}
	p, err := cl.Spawn(img, core.NodeX86)
	if err != nil {
		return fail()
	}
	timedOut := false
	for {
		eB, _ := ballast.Exited()
		eP, _ := p.Exited()
		if eB && eP {
			break
		}
		if cl.Time() > cap {
			timedOut = true
			break
		}
		if !cl.Step() {
			break
		}
	}
	// Drain to a fixed horizon so every in-flight probe/ack resolves and the
	// receive-side counters are exit-order independent. A step-count drain no
	// longer terminates: with the per-node membership gate the detector keeps
	// probing on an idle cluster, so Step never reports drained — and the
	// horizon must be absolute, because the engines leave the exit-polling
	// loop above at slightly different clocks.
	cl.Run(cap + 2e-3)
	_, stale := cl.FenceStats()
	return detRun{finish(p, "detector", timedOut), cl.IC.Stats()},
		finish(ballast, "detector-ballast", timedOut), svc.Stats(), stale
}

// detCkpt checkpoints every `every` migration points and returns the run
// plus the encoded images, which must match byte-for-byte across engines.
func detCkpt(img *link.Image, every uint64, cap float64, engine string) (detRun, [][]byte) {
	cl := detTestbed(engine)
	p, err := cl.Spawn(img, core.NodeX86)
	if err != nil {
		return detRun{RunResult: RunResult{Mode: "ckpt"}}, nil
	}
	var images [][]byte
	cl.OnCheckpoint = func(ev kernel.CheckpointEvent) {
		images = append(images, ckpt.Encode(ev.Snap))
	}
	cl.SetCheckpointPolicy(p, kernel.CkptPolicy{EveryPoints: every})
	to := drive(cl, p, cap, nil)
	return detRun{finish(p, "ckpt", to), cl.IC.Stats()}, images
}

// detRestore revives one image on the given node and runs it out.
func detRestore(img *link.Image, data []byte, node int, cap float64, engine string) detRun {
	snap, err := ckpt.Decode(data)
	if err != nil {
		return detRun{RunResult: RunResult{Mode: "restore"}}
	}
	cl := detTestbed(engine)
	p, err := cl.RestoreProcess(img, snap, node)
	if err != nil {
		return detRun{RunResult: RunResult{Mode: "restore"}}
	}
	to := drive(cl, p, cap, nil)
	return detRun{finish(p, "restore", to), cl.IC.Stats()}
}

func assertSameRun(t *testing.T, mode string, seq, par detRun) {
	t.Helper()
	if !equalRun(seq.RunResult, par.RunResult) {
		t.Errorf("%s: engines diverge: seq ok=%v exit=%d to=%v %dB (%s); par ok=%v exit=%d to=%v %dB (%s)",
			mode, seq.OK, seq.Exit, seq.TimedOut, len(seq.Output), seq.Digest(),
			par.OK, par.Exit, par.TimedOut, len(par.Output), par.Digest())
	}
	if seq.Migrations != par.Migrations {
		t.Errorf("%s: migration counts diverge: seq %d, par %d", mode, seq.Migrations, par.Migrations)
	}
	if seq.Stats != par.Stats {
		t.Errorf("%s: interconnect stats diverge:\nseq %+v\npar %+v", mode, seq.Stats, par.Stats)
	}
}

// TestEngineDeterminismCorpus replays every corpus entry through plain,
// bouncing, chaos and checkpoint/restore regimes on both engines.
func TestEngineDeterminismCorpus(t *testing.T) {
	ents, err := ListCorpus(CorpusDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Skip("empty corpus")
	}
	for _, path := range ents {
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			img, err := core.Build("fuzzprog", core.Src("fuzz.c", string(src)))
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			ref, points, refSec := runPlain(img, core.NodeX86, 2.0)
			if ref.TimedOut {
				t.Fatal("reference run exceeded its simulated-time cap")
			}
			cap := refSec*200 + 0.2
			bounceCap := refSec + float64(points)*5e-3 + 1.0
			h := fnv.New64a()
			h.Write(src)
			seed := int64(h.Sum64() & 0x7fffffffffffffff)
			every := points / 6
			if every == 0 {
				every = 1
			}

			for _, node := range []int{core.NodeX86, core.NodeARM} {
				assertSameRun(t, nodeName(node),
					detPlain(img, node, cap, "seq"), detPlain(img, node, cap, "par"))
			}
			assertSameRun(t, "mig-x86",
				detBounce(img, core.NodeX86, bounceCap, "seq"),
				detBounce(img, core.NodeX86, bounceCap, "par"))
			assertSameRun(t, "chaos",
				detChaos(img, seed, refSec, cap, "seq"),
				detChaos(img, seed, refSec, cap, "par"))

			detCap := 0.2 + cap
			seqDet, seqBal, seqMemSt, seqStale := detDetector(img, seed, detCap, "seq")
			parDet, parBal, parMemSt, parStale := detDetector(img, seed, detCap, "par")
			assertSameRun(t, "detector", seqDet, parDet)
			if !equalRun(seqBal, parBal) {
				t.Errorf("detector: ballast runs diverge: seq ok=%v exit=%d %dB (%s); par ok=%v exit=%d %dB (%s)",
					seqBal.OK, seqBal.Exit, len(seqBal.Output), seqBal.Digest(),
					parBal.OK, parBal.Exit, len(parBal.Output), parBal.Digest())
			}
			if seqMemSt != parMemSt {
				t.Errorf("detector: membership stats diverge:\nseq %+v\npar %+v", seqMemSt, parMemSt)
			}
			if seqMemSt.Deaths == 0 || seqMemSt.FalseSuspicions == 0 {
				t.Errorf("detector scenario lost its potency: no falsely declared death (%+v)", seqMemSt)
			}
			if seqStale != 0 || parStale != 0 {
				t.Errorf("detector: stale-incarnation messages delivered unfenced: seq %d par %d", seqStale, parStale)
			}

			seqCk, seqImgs := detCkpt(img, every, cap, "seq")
			parCk, parImgs := detCkpt(img, every, cap, "par")
			assertSameRun(t, "ckpt", seqCk, parCk)
			if len(seqImgs) != len(parImgs) {
				t.Fatalf("ckpt: image counts diverge: seq %d, par %d", len(seqImgs), len(parImgs))
			}
			for i := range seqImgs {
				if string(seqImgs[i]) != string(parImgs[i]) {
					t.Errorf("ckpt: image %d differs between engines", i)
				}
			}
			if len(seqImgs) > 0 {
				assertSameRun(t, "restore",
					detRestore(img, seqImgs[0], core.NodeARM, cap, "seq"),
					detRestore(img, seqImgs[0], core.NodeARM, cap, "par"))
			}
		})
	}
}

// TestEngineDeterminismMultiGroup runs two independent bouncing processes on
// disjoint node pairs of a 4-node rack — the configuration where the
// parallel engine actually forks two workers — and checks the partition and
// every observable against the sequential engine.
func TestEngineDeterminismMultiGroup(t *testing.T) {
	path := filepath.Join(CorpusDir(), "seed-001.c")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("corpus seed missing: %v", err)
	}
	img, err := core.Build("fuzzprog", core.Src("fuzz.c", string(src)))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	_, points, refSec := runPlain(img, core.NodeX86, 2.0)
	cap := 2*refSec + float64(points)*1e-2 + 2.0

	arches := []isa.Arch{isa.X86, isa.ARM64, isa.X86, isa.ARM64}
	type result struct {
		runs  [2]detRun
		stats msg.Stats
	}
	runBoth := func(engine string) result {
		cl := kernel.NewCluster(arches, kernel.DefaultInterconnect())
		if engine == "par" {
			cl.UseParallelEngine(0)
		}
		pA, err := cl.Spawn(img, 0)
		if err != nil {
			t.Fatalf("%s: spawn A: %v", engine, err)
		}
		pB, err := cl.Spawn(img, 2)
		if err != nil {
			t.Fatalf("%s: spawn B: %v", engine, err)
		}
		procs := map[int]*kernel.Process{pA.Pid: pA, pB.Pid: pB}
		base := map[int]int{pA.Pid: 0, pB.Pid: 2}
		cl.OnMigration = func(ev kernel.MigrationEvent) {
			p, b := procs[ev.Pid], base[ev.Pid]
			tgt := b
			if ev.To == b {
				tgt = b + 1
			}
			_ = cl.RequestMigration(p, ev.Tid, tgt)
		}
		_ = cl.RequestMigration(pA, 0, 1)
		_ = cl.RequestMigration(pB, 0, 3)
		if engine == "par" {
			want := fmt.Sprint([][]int{{0, 1}, {2, 3}})
			if got := fmt.Sprint(cl.Groups()); got != want {
				t.Fatalf("sharing groups %v, want %v", got, want)
			}
		}
		timedOut := false
		for {
			eA, _ := pA.Exited()
			eB, _ := pB.Exited()
			if eA && eB {
				break
			}
			if cl.Time() > cap {
				timedOut = true
				break
			}
			if !cl.Step() {
				timedOut = true
				break
			}
		}
		return result{
			runs: [2]detRun{
				{finish(pA, "pairA", timedOut), msg.Stats{}},
				{finish(pB, "pairB", timedOut), msg.Stats{}},
			},
			stats: cl.IC.Stats(),
		}
	}

	seq := runBoth("seq")
	par := runBoth("par")
	for i := range seq.runs {
		assertSameRun(t, seq.runs[i].Mode, seq.runs[i], par.runs[i])
	}
	if seq.stats != par.stats {
		t.Errorf("interconnect stats diverge:\nseq %+v\npar %+v", seq.stats, par.stats)
	}
	if seq.runs[0].Migrations < 2 {
		t.Errorf("pair A only migrated %d times; the bounce never engaged", seq.runs[0].Migrations)
	}
}

// TestEngineDeterminismGossipPartition runs the full gossip/partition/
// split-brain machinery on both engines and demands byte-identical
// observables: a 5-node rack under the SWIM detector and 2% loss has its
// {3,4} minority cut away for 12ms with a checkpoint-tracked ballast job on
// node 3 and a corpus program on node 0. The majority must declare the
// isolated side dead and restore the ballast exactly once on its own side,
// the minority must defer every verdict, healing must rejoin both declared
// nodes under bumped incarnations and reconverge every view — and the run
// result, interconnect counters, membership statistics, restore ledger and
// final view dump must all match across engines.
func TestEngineDeterminismGossipPartition(t *testing.T) {
	path := filepath.Join(CorpusDir(), "seed-001.c")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("corpus seed missing: %v", err)
	}
	img, err := core.Build("fuzzprog", core.Src("fuzz.c", string(src)))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	detBallastOnce.Do(func() {
		detBallastImg, _ = core.Build("ballast", core.Src("ballast.c", detBallastSrc))
	})
	if detBallastImg == nil {
		t.Fatal("ballast build failed")
	}

	const horizon = 0.25 // absolute drain horizon, past any completion
	type result struct {
		ballast, prog RunResult
		ic            msg.Stats
		mem           member.Stats
		ck            ckpt.Stats
		ledger        string
		dump          string
		stale         uint64
		incs          string
	}
	run := func(engine string) result {
		arches := []isa.Arch{isa.X86, isa.ARM64, isa.X86, isa.ARM64, isa.X86}
		cl := kernel.NewCluster(arches, kernel.DefaultInterconnect())
		if engine == "par" {
			cl.UseParallelEngine(0)
		}
		cl.InjectFaults(fault.Plan{
			Seed: 77, DropProb: 0.02,
			Partitions: []fault.PartitionWindow{{GroupA: []int{3, 4}, Start: 8e-3, HealAt: 20e-3}},
		})
		svc, err := member.Attach(cl, member.Config{HeartbeatPeriod: 0.5e-3})
		if err != nil {
			t.Fatalf("%s: attach: %v", engine, err)
		}
		mgr := ckpt.NewManager(cl)
		ballast, err := cl.Spawn(detBallastImg, 3) // on the minority side
		if err != nil {
			t.Fatalf("%s: spawn ballast: %v", engine, err)
		}
		mgr.Track(ballast, detBallastImg, kernel.CkptPolicy{EverySeconds: 2e-3})
		p, err := cl.Spawn(img, 0)
		if err != nil {
			t.Fatalf("%s: spawn prog: %v", engine, err)
		}
		timedOut := false
		for {
			cur := mgr.Current(ballast)
			eB, _ := cur.Exited()
			eP, _ := p.Exited()
			if eB && mgr.Current(ballast) == cur && eP {
				break
			}
			if cl.Time() > horizon {
				timedOut = true
				break
			}
			if !cl.Step() {
				timedOut = true
				break
			}
		}
		// Absolute-horizon drain: views reconverge, in-flight traffic lands.
		cl.Run(horizon)
		_, stale := cl.FenceStats()
		dump := svc.Dump()
		incs := fmt.Sprint(dump.Incarnations)
		return result{
			ballast: finish(mgr.Current(ballast), "gossip-ballast", timedOut),
			prog:    finish(p, "gossip-prog", timedOut),
			ic:      cl.IC.Stats(),
			mem:     svc.Stats(),
			ck:      mgr.Stats(),
			ledger:  fmt.Sprintf("%+v", mgr.Restores()),
			dump:    fmt.Sprintf("%+v", dump.Views),
			stale:   stale,
			incs:    incs,
		}
	}

	seq := run("seq")
	par := run("par")
	if !equalRun(seq.ballast, par.ballast) || !equalRun(seq.prog, par.prog) {
		t.Errorf("engines diverge on run observables:\nseq ballast=%s prog=%s\npar ballast=%s prog=%s",
			seq.ballast.Digest(), seq.prog.Digest(), par.ballast.Digest(), par.prog.Digest())
	}
	if seq.ic != par.ic {
		t.Errorf("interconnect stats diverge:\nseq %+v\npar %+v", seq.ic, par.ic)
	}
	if seq.mem != par.mem {
		t.Errorf("membership stats diverge:\nseq %+v\npar %+v", seq.mem, par.mem)
	}
	if seq.ck != par.ck || seq.ledger != par.ledger {
		t.Errorf("checkpoint observables diverge:\nseq %+v %s\npar %+v %s",
			seq.ck, seq.ledger, par.ck, par.ledger)
	}
	if seq.dump != par.dump || seq.incs != par.incs {
		t.Errorf("final views diverge:\nseq %s %s\npar %s %s", seq.dump, seq.incs, par.dump, par.incs)
	}

	// The scenario must actually exercise the machinery it exists for.
	if !seq.ballast.OK || !seq.prog.OK {
		t.Errorf("runs did not finish cleanly: ballast=%+v prog=%+v", seq.ballast, par.prog)
	}
	if seq.mem.Deaths == 0 || seq.mem.Rejoins == 0 || seq.mem.DeferredVerdicts == 0 {
		t.Errorf("scenario lost its potency: %+v", seq.mem)
	}
	if seq.ck.Restores != 1 || seq.ck.StaleLossEvents != 0 {
		t.Errorf("restores=%d stale=%d, want exactly one restore and no duplicates",
			seq.ck.Restores, seq.ck.StaleLossEvents)
	}
	if seq.stale != 0 {
		t.Errorf("%d stale-incarnation messages delivered unfenced", seq.stale)
	}
}
