package fuzz

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/fnv"

	"heterodc/internal/ckpt"
	"heterodc/internal/core"
	"heterodc/internal/fault"
	"heterodc/internal/kernel"
	"heterodc/internal/link"
)

// The differential oracle compiles a program once and executes the image
// under every execution regime the paper claims is transparent:
//
//	x86          single node, the reference run
//	arm          single node, the other ISA
//	mig-x86      start on x86, migrate at every migration point
//	mig-arm      start on ARM, migrate at every migration point
//	chaos        lossy/degraded interconnect with a mid-run process migration
//	ckpt         checkpoint every few points; every image restored on both
//	             nodes and run to completion
//
// Console output and exit status must be byte-identical across all of them;
// any difference is a toolchain/kernel bug by construction of the generator.

// maxRefSeconds caps the reference run's simulated time. Reducer-made
// candidates may loop longer than their parent; a capped run is reported as
// timed out, never hung.
const maxRefSeconds = 2.0

// RunResult is one execution's observable behaviour.
type RunResult struct {
	Mode string
	// OK: the process ran to completion without a kernel kill.
	OK       bool
	Exit     int64
	TimedOut bool
	Output   []byte
	// Migrations/Points are diagnostics, never compared.
	Migrations int
}

// Digest is a short content hash of the observables, for repro tables.
func (r RunResult) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "ok=%v exit=%d to=%v\n", r.OK, r.Exit, r.TimedOut)
	h.Write(r.Output)
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}

// Verdict is the oracle's full judgement of one program.
type Verdict struct {
	Source string
	// Runs holds every execution, reference first (including one entry per
	// checkpoint restore).
	Runs []RunResult
	// Diverged: at least one run differed from the reference.
	Diverged bool
	// Diffs describes each divergence in one line.
	Diffs []string
	// Points is the reference run's migration-point count; Images the
	// number of checkpoint images captured and restored.
	Points     uint64
	Images     int
	RefSeconds float64
}

// Ref returns the reference run.
func (v *Verdict) Ref() RunResult { return v.Runs[0] }

// RunProg renders and runs a program AST through the oracle.
func RunProg(p *Prog) (*Verdict, error) {
	return RunSource(Render(p))
}

// BuildProg compiles a program AST without running it.
func BuildProg(p *Prog) (*link.Image, error) {
	return core.Build("fuzzprog", core.Src("fuzz.c", Render(p)))
}

// RunSource compiles src once and executes it through all oracle modes.
// The returned error covers only ungradable programs — build failure or a
// reference run that exceeds its simulated-time cap; behavioural differences
// land in Verdict.Diverged instead.
func RunSource(src string) (*Verdict, error) {
	img, err := core.Build("fuzzprog", core.Src("fuzz.c", src))
	if err != nil {
		return nil, fmt.Errorf("fuzz: build: %w", err)
	}
	v := &Verdict{Source: src}
	ref, points, refSec := runPlain(img, core.NodeX86, maxRefSeconds)
	if ref.TimedOut {
		return nil, fmt.Errorf("fuzz: reference run exceeded %.1fs simulated", maxRefSeconds)
	}
	v.Points = points
	v.RefSeconds = refSec
	v.Runs = append(v.Runs, ref)

	// Every other mode gets generous headroom over the reference runtime:
	// migration and fault overheads are large multiples on tiny programs.
	cap := refSec*200 + 0.2
	// Bouncing at every migration point costs a stack transformation plus
	// state transfer per point, so that cap scales with the point count.
	bounceCap := refSec + float64(points)*5e-3 + 1.0

	arm, _, _ := runPlain(img, core.NodeARM, cap)
	v.Runs = append(v.Runs, arm)
	v.Runs = append(v.Runs, runBounce(img, core.NodeX86, bounceCap))
	v.Runs = append(v.Runs, runBounce(img, core.NodeARM, bounceCap))

	// The fault plan's seed is the source hash, so a corpus entry replays
	// under the identical plan forever.
	h := fnv.New64a()
	h.Write([]byte(src))
	v.Runs = append(v.Runs, runChaos(img, int64(h.Sum64()&0x7fffffffffffffff), refSec, cap))

	every := points / 6
	if every == 0 {
		every = 1
	}
	ck, images := runCkpt(img, every, cap)
	v.Runs = append(v.Runs, ck)
	v.Images = len(images)
	for i, data := range images {
		for _, node := range []int{core.NodeX86, core.NodeARM} {
			rr, derr := runRestore(img, data, node, cap)
			rr.Mode = fmt.Sprintf("ckpt-restore-%d@%s", i, nodeName(node))
			if derr != nil {
				v.Diverged = true
				v.Diffs = append(v.Diffs, fmt.Sprintf("%s: %v", rr.Mode, derr))
				continue
			}
			v.Runs = append(v.Runs, rr)
		}
	}

	for _, r := range v.Runs[1:] {
		if equalRun(ref, r) {
			continue
		}
		v.Diverged = true
		v.Diffs = append(v.Diffs, fmt.Sprintf(
			"%s: ok=%v exit=%d timeout=%v %dB (%s) vs ref ok=%v exit=%d %dB (%s)",
			r.Mode, r.OK, r.Exit, r.TimedOut, len(r.Output), r.Digest(),
			ref.OK, ref.Exit, len(ref.Output), ref.Digest()))
	}
	return v, nil
}

// equalRun compares the observables the paper promises are invariant.
// Exit codes only count for completed runs: a killed process records the
// kill reason in Err (which may name nodes/arches), not a meaningful code.
func equalRun(a, b RunResult) bool {
	if a.OK != b.OK || a.TimedOut != b.TimedOut {
		return false
	}
	if !bytes.Equal(a.Output, b.Output) {
		return false
	}
	return !a.OK || a.Exit == b.Exit
}

func nodeName(node int) string {
	if node == core.NodeARM {
		return "arm"
	}
	return "x86"
}

// drive steps the cluster until p terminates, the simulated clock passes
// cap, or the cluster drains. tick, when non-nil, runs between steps.
func drive(cl *kernel.Cluster, p *kernel.Process, cap float64, tick func()) (timedOut bool) {
	for {
		if exited, _ := p.Exited(); exited {
			return false
		}
		if cl.Time() > cap {
			return true
		}
		if tick != nil {
			tick()
		}
		if !cl.Step() {
			// Drained without the process exiting: count as a timeout-like
			// failure so it can never masquerade as a clean run.
			return true
		}
	}
}

// finish converts a completed process into a RunResult.
func finish(p *kernel.Process, mode string, timedOut bool) RunResult {
	r := RunResult{Mode: mode, TimedOut: timedOut}
	if timedOut {
		return r
	}
	res := core.ResultOf(p, p.ExitTime())
	r.OK = p.Err() == nil
	r.Exit, r.Output, r.Migrations = res.ExitCode, res.Output, res.Migrations
	return r
}

// runPlain runs the image on one node, counting migration points via an
// armed-but-idle checkpoint policy.
func runPlain(img *link.Image, node int, cap float64) (RunResult, uint64, float64) {
	cl := core.NewTestbed()
	p, err := cl.Spawn(img, node)
	if err != nil {
		return RunResult{Mode: nodeName(node)}, 0, 0
	}
	cl.SetCheckpointPolicy(p, kernel.CkptPolicy{})
	to := drive(cl, p, cap, nil)
	return finish(p, nodeName(node), to), p.CheckpointPoints(), cl.Time()
}

// runBounce starts on one node and keeps every live thread migrating at
// every migration point: each completed migration immediately requests the
// next one back, and newly spawned threads are swept into the dance.
func runBounce(img *link.Image, start int, cap float64) RunResult {
	mode := "mig-" + nodeName(start)
	cl := core.NewTestbed()
	p, err := cl.Spawn(img, start)
	if err != nil {
		return RunResult{Mode: mode}
	}
	cl.OnMigration = func(ev kernel.MigrationEvent) {
		_ = cl.RequestMigration(p, ev.Tid, 1-ev.To)
	}
	requested := map[int64]bool{}
	sweep := func() {
		for tid := int64(0); ; tid++ {
			t := p.Thread(tid)
			if t == nil {
				break
			}
			if !requested[tid] && t.State != kernel.Exited {
				requested[tid] = true
				_ = cl.RequestMigration(p, tid, 1-t.Node)
			}
		}
	}
	to := drive(cl, p, cap, sweep)
	return finish(p, mode, to)
}

// runChaos runs under a seeded lossy plan with a degraded-link window and a
// mid-run process migration each way. Faults may slow the program down
// arbitrarily; they must never change what it prints.
func runChaos(img *link.Image, seed int64, refSec, cap float64) RunResult {
	cl := core.NewTestbed()
	cl.InjectFaults(fault.Plan{
		Seed: seed, DropProb: 0.04, DupProb: 0.01, JitterSec: 2e-6,
		Windows: []fault.Window{{
			From: 0, To: 1, Start: 0.2 * refSec, End: 0.5 * refSec,
			DropProb: 0.25, JitterSec: 8e-6,
		}},
	})
	p, err := cl.Spawn(img, core.NodeX86)
	if err != nil {
		return RunResult{Mode: "chaos"}
	}
	phase := 0
	tick := func() {
		switch {
		case phase == 0 && cl.Time() >= 0.3*refSec:
			cl.RequestProcessMigration(p, core.NodeARM)
			phase = 1
		case phase == 1 && cl.Time() >= 0.65*refSec:
			cl.RequestProcessMigration(p, core.NodeX86)
			phase = 2
		}
	}
	to := drive(cl, p, cap, tick)
	return finish(p, "chaos", to)
}

// runCkpt checkpoints every `every` migration points, collecting each image
// in encoded form, and returns the run itself plus the images.
func runCkpt(img *link.Image, every uint64, cap float64) (RunResult, [][]byte) {
	cl := core.NewTestbed()
	p, err := cl.Spawn(img, core.NodeX86)
	if err != nil {
		return RunResult{Mode: "ckpt"}, nil
	}
	var images [][]byte
	cl.OnCheckpoint = func(ev kernel.CheckpointEvent) {
		images = append(images, ckpt.Encode(ev.Snap))
	}
	cl.SetCheckpointPolicy(p, kernel.CkptPolicy{EveryPoints: every})
	to := drive(cl, p, cap, nil)
	return finish(p, "ckpt", to), images
}

// runRestore decodes one checkpoint image, restores it on the given node
// and runs the revived process to completion. Its full output (captured
// prefix plus the replayed remainder) must equal the reference's.
func runRestore(img *link.Image, data []byte, node int, cap float64) (RunResult, error) {
	snap, err := ckpt.Decode(data)
	if err != nil {
		return RunResult{}, fmt.Errorf("decode: %w", err)
	}
	cl := core.NewTestbed()
	p, err := cl.RestoreProcess(img, snap, node)
	if err != nil {
		return RunResult{}, fmt.Errorf("restore: %w", err)
	}
	to := drive(cl, p, cap, nil)
	return finish(p, "", to), nil
}
