package exp

import (
	"bytes"
	"cmp"
	"fmt"

	"heterodc/internal/core"
	"heterodc/internal/fault"
	"heterodc/internal/kernel"
	"heterodc/internal/link"
	"heterodc/internal/npb"
)

// ChaosRow reports one benchmark under one fault plan.
type ChaosRow struct {
	Bench string
	Plan  string
	// Base is the fault-free runtime; Seconds the runtime under the plan.
	Base, Seconds float64
	// ExitOK: exited with code 0 and no kill. OutputMatch: byte-identical
	// output to the fault-free run (the benchmarks self-verify, so this is
	// the correctness criterion).
	ExitOK      bool
	OutputMatch bool
	// Interconnect fault counters for the run.
	Dropped, Retries, Duplicated, Exhausted uint64
	// Aborted sums migrations rolled back; Migrations counts completed ones.
	Aborted    uint64
	Migrations int
	// CrashEvents/RecoverEvents from the trace log.
	CrashEvents, RecoverEvents int
	// Checkpoint-recovery counters (non-zero only for the permanent-crash
	// plan, which runs under a ckpt.Manager).
	Checkpoints  int
	Restores     int
	CkptBytes    int64
	WorkReplayed float64
}

// bench is one NPB kernel of the cluster studies: its image and its
// fault-free run on x86.
type bench struct {
	name string
	img  *link.Image
	ref  *core.Result
}

// newBench builds b.k for one thread and runs it fault-free on x86.
func newBench(b npb.Bench, k npb.Class) (bench, error) {
	img, err := npb.Build(b, k, 1)
	if err != nil {
		return bench{}, fmt.Errorf("exp: build %s.%s: %w", b, k, err)
	}
	ref, err := core.Run(img, core.NodeX86)
	if err != nil {
		return bench{}, fmt.Errorf("exp: baseline %s.%s: %w", b, k, err)
	}
	return bench{fmt.Sprintf("%s.%s", b, k), img, ref}, nil
}

// chaosBenches are EP and IS, class S at quick scale and A otherwise.
func (c Config) chaosBenches() ([]bench, error) {
	k := npb.ClassA
	if c.Scale == Quick {
		k = npb.ClassS
	}
	ep, err := newBench(npb.EP, k)
	if err != nil {
		return nil, err
	}
	is, err := newBench(npb.IS, k)
	return []bench{ep, is}, err
}

// chaosScenarios derives the four stock fault plans from a fault-free
// runtime, each over img started on x86 with a migration to ARM requested
// at a quarter of the run: a uniformly lossy fabric, a mid-run
// degraded-link window, a mid-run node-1 crash with recovery, and a
// permanent node-1 crash (RecoverAt <= At) that only checkpoint-based
// recovery survives, so it carries a checkpoint policy.
func chaosScenarios(cfg Config, img *link.Image, ref float64) []Scenario {
	drop, crashFrac := cmp.Or(cfg.DropProb, 0.02), cmp.Or(cfg.CrashFrac, 0.35)
	scs := []Scenario{
		{Name: "lossy", Faults: fault.Plan{
			Seed: cfg.Seed, DropProb: drop, DupProb: 0.005, JitterSec: 3e-6,
		}},
		{Name: "degraded-link", Faults: fault.Plan{
			Seed: cfg.Seed + 1, DropProb: drop / 2, DupProb: 0.01, JitterSec: 2e-6,
			Windows: []fault.Window{{
				From: 0, To: 1, Start: 0.2 * ref, End: 0.5 * ref,
				DropProb: 0.25, JitterSec: 10e-6,
			}},
		}},
		{Name: "node-crash", Faults: fault.Plan{
			Seed: cfg.Seed + 2, DropProb: drop / 2, JitterSec: 2e-6,
			Crashes: []fault.Crash{{
				Node: 1, At: crashFrac * ref, RecoverAt: (crashFrac + 0.15) * ref,
			}},
		}},
		{Name: "node-crash-perm", Faults: fault.Plan{
			Seed: cfg.Seed + 3,
			Crashes: []fault.Crash{{
				Node: 1, At: (crashFrac + 0.2) * ref, RecoverAt: 0,
			}},
		}, Ckpt: kernel.CkptPolicy{EverySeconds: 0.08 * ref}},
	}
	for i := range scs {
		scs[i].Trace, scs[i].Settle = true, 10*ref
		scs[i].Img, scs[i].JobNodes = img, []int{core.NodeX86}
		scs[i].MigrateAt, scs[i].MigrateTo = 0.25*ref, core.NodeARM
	}
	return scs
}

// runTracked runs a scenario of one tracked job on both engines, fails when
// they disagree, and returns the job's result, timed by its exit instant,
// and the sequential run. sc must settle past the exit, so that both
// engines read the counters at the same instant.
func runTracked(sc Scenario) (*core.Result, *Rig, error) {
	outs, err := sc.runBoth()
	if err != nil {
		return nil, nil, err
	}
	final := outs[0].Jobs[0]
	if err := final.Err(); err != nil {
		return nil, nil, fmt.Errorf("exp: %s failed despite recovery: %w", sc.Name, err)
	}
	return core.ResultOf(final, final.ExitTime()), outs[0], nil
}

// Chaos runs the NPB kernels under the stock fault plans and reports
// correctness and overhead against the fault-free baseline. Processes must
// finish, verify and match the baseline output under every plan — faults
// degrade performance, never correctness — and both time engines must give
// the same run.
func Chaos(cfg Config) ([]ChaosRow, error) {
	benches, err := cfg.chaosBenches()
	if err != nil {
		return nil, err
	}
	var rows []ChaosRow
	for _, b := range benches {
		cfg.printf("%s baseline: %.4fs\n", b.name, b.ref.Seconds)
		for _, sc := range chaosScenarios(cfg, b.img, b.ref.Seconds) {
			res, out, err := runTracked(sc)
			if err != nil {
				return nil, fmt.Errorf("exp: chaos %s under %s: %w", b.name, sc.Name, err)
			}
			row := ChaosRow{
				Bench: b.name, Plan: sc.Name,
				Base: b.ref.Seconds, Seconds: res.Seconds,
				ExitOK:      res.ExitCode == 0,
				OutputMatch: bytes.Equal(res.Output, b.ref.Output),
				Migrations:  res.Migrations,
				CrashEvents: out.Log.Count("crash"), RecoverEvents: out.Log.Count("recover"),
			}
			if out.Mgr != nil {
				cs := out.Mgr.Stats()
				row.Checkpoints, row.Restores = cs.ImagesWritten, cs.Restores
				row.CkptBytes, row.WorkReplayed = cs.BytesWritten, cs.WorkReplayedSeconds
				rows = append(rows, row)
				cfg.printf("  %-14s %.4fs (%.2fx) exit=%v match=%v ckpt=%d restores=%d replayed=%.4fs\n",
					sc.Name, row.Seconds, row.Seconds/row.Base, row.ExitOK, row.OutputMatch,
					row.Checkpoints, row.Restores, row.WorkReplayed)
				continue
			}
			st := out.Cl.IC.Stats()
			row.Dropped, row.Retries, row.Duplicated, row.Exhausted = st.Dropped, st.Retries, st.Duplicated, st.Exhausted
			for _, kn := range out.Cl.Kernels {
				row.Aborted += kn.MigrationsAborted
			}
			rows = append(rows, row)
			cfg.printf("  %-14s %.4fs (%.2fx) exit=%v match=%v drop=%d retry=%d dup=%d mig=%d abort=%d\n",
				sc.Name, row.Seconds, row.Seconds/row.Base, row.ExitOK, row.OutputMatch,
				row.Dropped, row.Retries, row.Duplicated, row.Migrations, row.Aborted)
		}
	}
	return rows, nil
}

// ChaosShapeHolds checks the study's one claim: faults cost time, never
// correctness — every run exits cleanly with baseline-identical output.
func ChaosShapeHolds(rows []ChaosRow) error {
	for _, r := range rows {
		if !r.ExitOK || !r.OutputMatch {
			return fmt.Errorf("chaos: %s under %s lost correctness (exit=%v match=%v)", r.Bench, r.Plan, r.ExitOK, r.OutputMatch)
		}
	}
	return nil
}
