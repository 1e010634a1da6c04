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

// ChaosOptions parameterises the chaos harness.
type ChaosOptions struct {
	// Seed selects the deterministic fault streams.
	Seed int64
	// DropProb is the baseline loss probability of the lossy plan (the
	// degraded and crash plans derive theirs from it). Zero means 2%.
	DropProb float64
	// CrashFrac places the node-1 outage, as a fraction of the fault-free
	// runtime. Zero means 0.35 (recovery at CrashFrac + 0.15).
	CrashFrac float64
}

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
func chaosScenarios(opts ChaosOptions, img *link.Image, ref float64) []Scenario {
	drop, crashFrac := cmp.Or(opts.DropProb, 0.02), cmp.Or(opts.CrashFrac, 0.35)
	scs := []Scenario{
		{Name: "lossy", Faults: fault.Plan{
			Seed: opts.Seed, DropProb: drop, DupProb: 0.005, JitterSec: 3e-6,
		}},
		{Name: "degraded-link", Faults: fault.Plan{
			Seed: opts.Seed + 1, DropProb: drop / 2, DupProb: 0.01, JitterSec: 2e-6,
			Windows: []fault.Window{{
				From: 0, To: 1, Start: 0.2 * ref, End: 0.5 * ref,
				DropProb: 0.25, JitterSec: 10e-6,
			}},
		}},
		{Name: "node-crash", Faults: fault.Plan{
			Seed: opts.Seed + 2, DropProb: drop / 2, JitterSec: 2e-6,
			Crashes: []fault.Crash{{
				Node: 1, At: crashFrac * ref, RecoverAt: (crashFrac + 0.15) * ref,
			}},
		}},
		{Name: "node-crash-perm", Faults: fault.Plan{
			Seed: opts.Seed + 3,
			Crashes: []fault.Crash{{
				Node: 1, At: (crashFrac + 0.2) * ref, RecoverAt: 0,
			}},
		}, Ckpt: kernel.CkptPolicy{EverySeconds: 0.08 * ref}},
	}
	for i := range scs {
		scs[i].Trace = true
		scs[i].Img, scs[i].JobNodes = img, []int{core.NodeX86}
		scs[i].MigrateAt, scs[i].MigrateTo = 0.25*ref, core.NodeARM
	}
	return scs
}

// runJob runs a scenario of one tracked job on the sequential engine and
// returns the job's result. A chaos job's migration request lands at a
// step boundary, which is engine-grained, so chaos runs on seq only.
func runJob(sc Scenario) (*core.Result, *Rig, error) {
	out, err := sc.Run("seq")
	if err != nil {
		return nil, nil, err
	}
	final := out.Jobs[0]
	if err := final.Err(); err != nil {
		return nil, nil, fmt.Errorf("exp: %s failed despite recovery: %w", sc.Name, err)
	}
	return core.ResultOf(final, out.Cl.Time()), out, nil
}

// Chaos runs the NPB kernels under the stock fault plans and reports
// correctness and overhead against the fault-free baseline. Processes must
// finish, verify and match the baseline output under every plan — faults
// degrade performance, never correctness.
func Chaos(cfg Config, opts ChaosOptions) ([]ChaosRow, error) {
	benches, err := cfg.chaosBenches()
	if err != nil {
		return nil, err
	}
	var rows []ChaosRow
	for _, b := range benches {
		cfg.printf("%s baseline: %.4fs\n", b.name, b.ref.Seconds)
		for _, sc := range chaosScenarios(opts, b.img, b.ref.Seconds) {
			res, out, err := runJob(sc)
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
