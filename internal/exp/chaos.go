package exp

import (
	"bytes"
	"fmt"

	"heterodc/internal/ckpt"
	"heterodc/internal/core"
	"heterodc/internal/fault"
	"heterodc/internal/kernel"
	"heterodc/internal/msg"
	"heterodc/internal/npb"
	"heterodc/internal/trace"
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

// chaosBenches returns the benchmark set at this scale.
func (c Config) chaosBenches() []struct {
	b npb.Bench
	k npb.Class
} {
	k := npb.ClassS
	if c.Scale != Quick {
		k = npb.ClassA
	}
	return []struct {
		b npb.Bench
		k npb.Class
	}{{npb.EP, k}, {npb.IS, k}}
}

// chaosPlans derives the four stock fault plans from a fault-free runtime:
// a uniformly lossy fabric, a mid-run degraded-link window, a mid-run
// node-1 crash with recovery, and a permanent node-1 crash (RecoverAt <= At)
// that only checkpoint-based recovery can survive.
func chaosPlans(opts ChaosOptions, ref float64) []struct {
	name string
	plan fault.Plan
} {
	drop := opts.DropProb
	if drop == 0 {
		drop = 0.02
	}
	crashFrac := opts.CrashFrac
	if crashFrac == 0 {
		crashFrac = 0.35
	}
	return []struct {
		name string
		plan fault.Plan
	}{
		{"lossy", fault.Plan{
			Seed: opts.Seed, DropProb: drop, DupProb: 0.005, JitterSec: 3e-6,
		}},
		{"degraded-link", fault.Plan{
			Seed: opts.Seed + 1, DropProb: drop / 2, DupProb: 0.01, JitterSec: 2e-6,
			Windows: []fault.Window{{
				From: 0, To: 1, Start: 0.2 * ref, End: 0.5 * ref,
				DropProb: 0.25, JitterSec: 10e-6,
			}},
		}},
		{"node-crash", fault.Plan{
			Seed: opts.Seed + 2, DropProb: drop / 2, JitterSec: 2e-6,
			Crashes: []fault.Crash{{
				Node: 1, At: crashFrac * ref, RecoverAt: (crashFrac + 0.15) * ref,
			}},
		}},
		{"node-crash-perm", fault.Plan{
			Seed: opts.Seed + 3,
			Crashes: []fault.Crash{{
				Node: 1, At: (crashFrac + 0.2) * ref, RecoverAt: 0,
			}},
		}},
	}
}

// planPermanent reports whether a plan contains a permanent crash, i.e. a
// node that never comes back. Such a plan strands any process with state on
// the node unless checkpoint recovery is running.
func planPermanent(p fault.Plan) bool {
	for _, c := range p.Crashes {
		if c.RecoverAt <= c.At {
			return true
		}
	}
	return false
}

// runChaosOnce executes img on the testbed under plan, requesting a
// container migration to node 1 at migrateAt so the fault machinery is
// exercised with a thread actually on (or moving to) the faulty side.
func runChaosOnce(b npb.Bench, k npb.Class, plan fault.Plan, migrateAt float64) (
	*core.Result, msg.Stats, uint64, *trace.EventLog, error) {
	img, err := npb.Build(b, k, 1)
	if err != nil {
		return nil, msg.Stats{}, 0, nil, err
	}
	cl := core.NewTestbed()
	cl.InjectFaults(plan)
	log := trace.NewEventLog(4096)
	cl.SetTracer(log)
	p, err := cl.Spawn(img, core.NodeX86)
	if err != nil {
		return nil, msg.Stats{}, 0, nil, err
	}
	requested := false
	for {
		if exited, _ := p.Exited(); exited {
			break
		}
		if !requested && cl.Time() >= migrateAt {
			cl.RequestProcessMigration(p, core.NodeARM)
			requested = true
		}
		if !cl.Step() {
			return nil, msg.Stats{}, 0, nil,
				fmt.Errorf("exp: chaos: cluster drained before %s.%s exited", b, k)
		}
	}
	res, err := core.Wait(cl, p)
	if err != nil {
		return nil, msg.Stats{}, 0, nil, err
	}
	var aborted uint64
	for _, kn := range cl.Kernels {
		aborted += kn.MigrationsAborted
	}
	return res, cl.IC.Stats(), aborted, log, nil
}

// runChaosCkptOnce executes a benchmark under a permanent-crash plan with
// checkpoint-based recovery: the process is checkpointed under pol and,
// once the crash strands it, restored from its latest image on the
// surviving node. Returns the finishing incarnation's result.
func runChaosCkptOnce(b npb.Bench, k npb.Class, plan fault.Plan, migrateAt float64, pol kernel.CkptPolicy) (
	*core.Result, ckpt.Stats, *trace.EventLog, error) {
	img, err := npb.Build(b, k, 1)
	if err != nil {
		return nil, ckpt.Stats{}, nil, err
	}
	cl := core.NewTestbed()
	cl.InjectFaults(plan)
	log := trace.NewEventLog(4096)
	cl.SetTracer(log)
	mgr := ckpt.NewManager(cl)
	p, err := cl.Spawn(img, core.NodeX86)
	if err != nil {
		return nil, ckpt.Stats{}, nil, err
	}
	mgr.Track(p, img, pol)
	requested := false
	for {
		cur := mgr.Current(p)
		if exited, _ := cur.Exited(); exited {
			// A crash in the same step may already have restored a newer
			// incarnation; follow it.
			if mgr.Current(p) != cur {
				continue
			}
			break
		}
		if !requested && cl.Time() >= migrateAt {
			cl.RequestProcessMigration(cur, core.NodeARM)
			requested = true
		}
		if !cl.Step() {
			return nil, ckpt.Stats{}, nil,
				fmt.Errorf("exp: chaos: cluster drained before %s.%s exited", b, k)
		}
	}
	final := mgr.Current(p)
	if err := final.Err(); err != nil {
		return nil, mgr.Stats(), log, fmt.Errorf("exp: chaos: %s.%s failed despite recovery: %w", b, k, err)
	}
	_, code := final.Exited()
	res := &core.Result{ExitCode: code, Output: final.Output(), Seconds: cl.Time()}
	for tid := int64(0); ; tid++ {
		t := final.Thread(tid)
		if t == nil {
			break
		}
		res.Migrations += t.Migrations
	}
	return res, mgr.Stats(), log, nil
}

// Chaos runs the NPB kernels under the stock fault plans and reports
// correctness and overhead against the fault-free baseline. Processes must
// finish, verify and match the baseline output under every plan — faults
// degrade performance, never correctness.
func Chaos(cfg Config, opts ChaosOptions) ([]ChaosRow, error) {
	var rows []ChaosRow
	for _, bk := range cfg.chaosBenches() {
		img, err := npb.Build(bk.b, bk.k, 1)
		if err != nil {
			return nil, fmt.Errorf("exp: chaos build %s.%s: %w", bk.b, bk.k, err)
		}
		ref, err := core.Run(img, core.NodeX86)
		if err != nil {
			return nil, fmt.Errorf("exp: chaos baseline %s.%s: %w", bk.b, bk.k, err)
		}
		cfg.printf("%s.%s baseline: %.4fs\n", bk.b, bk.k, ref.Seconds)
		migrateAt := 0.25 * ref.Seconds
		for _, pl := range chaosPlans(opts, ref.Seconds) {
			if planPermanent(pl.plan) {
				pol := kernel.CkptPolicy{EverySeconds: 0.08 * ref.Seconds}
				res, cs, log, err := runChaosCkptOnce(bk.b, bk.k, pl.plan, migrateAt, pol)
				if err != nil {
					return nil, fmt.Errorf("exp: chaos %s under %s: %w", bk.b, pl.name, err)
				}
				row := ChaosRow{
					Bench: fmt.Sprintf("%s.%s", bk.b, bk.k), Plan: pl.name,
					Base: ref.Seconds, Seconds: res.Seconds,
					ExitOK:      res.ExitCode == 0,
					OutputMatch: bytes.Equal(res.Output, ref.Output),
					Migrations:  res.Migrations,
					CrashEvents: log.Count("crash"), RecoverEvents: log.Count("recover"),
					Checkpoints: cs.ImagesWritten, Restores: cs.Restores,
					CkptBytes: cs.BytesWritten, WorkReplayed: cs.WorkReplayedSeconds,
				}
				rows = append(rows, row)
				cfg.printf("  %-14s %.4fs (%.2fx) exit=%v match=%v ckpt=%d restores=%d replayed=%.4fs\n",
					pl.name, row.Seconds, row.Seconds/row.Base, row.ExitOK, row.OutputMatch,
					row.Checkpoints, row.Restores, row.WorkReplayed)
				continue
			}
			res, stats, aborted, log, err := runChaosOnce(bk.b, bk.k, pl.plan, migrateAt)
			if err != nil {
				return nil, fmt.Errorf("exp: chaos %s under %s: %w", bk.b, pl.name, err)
			}
			row := ChaosRow{
				Bench: fmt.Sprintf("%s.%s", bk.b, bk.k), Plan: pl.name,
				Base: ref.Seconds, Seconds: res.Seconds,
				ExitOK:      res.ExitCode == 0,
				OutputMatch: bytes.Equal(res.Output, ref.Output),
				Dropped:     stats.Dropped, Retries: stats.Retries,
				Duplicated: stats.Duplicated, Exhausted: stats.Exhausted,
				Aborted: aborted, Migrations: res.Migrations,
				CrashEvents: log.Count("crash"), RecoverEvents: log.Count("recover"),
			}
			rows = append(rows, row)
			cfg.printf("  %-14s %.4fs (%.2fx) exit=%v match=%v drop=%d retry=%d dup=%d mig=%d abort=%d\n",
				pl.name, row.Seconds, row.Seconds/row.Base, row.ExitOK, row.OutputMatch,
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
