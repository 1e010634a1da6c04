package exp

import (
	"bytes"
	"fmt"

	"heterodc/internal/core"
	"heterodc/internal/fault"
	"heterodc/internal/kernel"
)

// The checkpoint experiment quantifies the cost/benefit trade of the
// checkpoint interval: short intervals buy a small replay window after a
// permanent crash at the price of more stop-the-world captures.

// ckptFracs are the checkpoint intervals swept, as fractions of the
// fault-free runtime.
var ckptFracs = []float64{0.02, 0.05, 0.1, 0.2}

// CkptOverheadRow reports one benchmark under one checkpoint interval with
// no faults: the pure cost of periodic capture.
type CkptOverheadRow struct {
	Bench string
	// IntervalFrac is the checkpoint interval as a fraction of Base.
	IntervalFrac float64
	// Base is the checkpoint-free runtime; Seconds the runtime with the
	// policy enabled; Overhead their ratio.
	Base, Seconds, Overhead float64
	// Images counts checkpoint images, AvgBytes their mean encoded size,
	// AvgCaptureSec the mean modelled stop-the-world latency.
	Images        int
	AvgBytes      int64
	AvgCaptureSec float64
	// OutputMatch: the checkpointed run's own output is byte-identical to
	// the checkpoint-free run (capture must be invisible to the program).
	OutputMatch bool
}

// CkptRecoveryRow reports one benchmark recovering from a permanent node-1
// crash under one checkpoint interval: the work-lost side of the trade.
type CkptRecoveryRow struct {
	Bench        string
	IntervalFrac float64
	// Base is the fault-free runtime; Seconds the end-to-end runtime
	// including the crash, restore and replay.
	Base, Seconds float64
	// WorkReplayed is the simulated time between the restored image's
	// capture and the crash — what a shorter interval would have saved.
	WorkReplayed float64
	Restores     int
	OutputMatch  bool
}

// CkptResult bundles both sweeps.
type CkptResult struct {
	Overhead []CkptOverheadRow
	Recovery []CkptRecoveryRow
}

// Ckpt sweeps the checkpoint interval over the NPB kernels: the fault-free
// capture overhead per interval, and the end-to-end recovery cost of a
// permanent mid-run node-1 crash per interval. Every run must reproduce the
// baseline output exactly, and both time engines the same run.
func Ckpt(cfg Config) (*CkptResult, error) {
	benches, err := cfg.chaosBenches()
	if err != nil {
		return nil, err
	}
	res := &CkptResult{}
	for _, b := range benches {
		name, img, ref := b.name, b.img, b.ref
		cfg.printf("%s baseline: %.4fs\n", name, ref.Seconds)

		for _, frac := range ckptFracs {
			pol := kernel.CkptPolicy{EverySeconds: frac * ref.Seconds}
			run, out, err := runTracked(Scenario{Ckpt: pol, Img: img, JobNodes: []int{core.NodeX86}, Settle: 10 * ref.Seconds})
			if err != nil {
				return nil, fmt.Errorf("exp: ckpt overhead %s frac=%.2f: %w", name, frac, err)
			}
			st := out.Mgr.Stats()
			row := CkptOverheadRow{
				Bench: name, IntervalFrac: frac,
				Base: ref.Seconds, Seconds: run.Seconds, Overhead: run.Seconds / ref.Seconds,
				Images:      st.ImagesWritten,
				OutputMatch: bytes.Equal(run.Output, ref.Output),
			}
			if st.ImagesWritten > 0 {
				row.AvgBytes = st.BytesWritten / int64(st.ImagesWritten)
				row.AvgCaptureSec = st.CaptureSeconds / float64(st.ImagesWritten)
			}
			res.Overhead = append(res.Overhead, row)
			cfg.printf("  overhead frac=%.2f %8.4fs (%.3fx) images=%d avg=%dB capture=%.1fµs match=%v\n",
				frac, row.Seconds, row.Overhead, row.Images, row.AvgBytes,
				row.AvgCaptureSec*1e6, row.OutputMatch)
		}

		for _, frac := range ckptFracs {
			// The crash lands well after the migration request so the
			// transfer (delayed by intervening captures) completes and the
			// thread is actually stranded on the dying node.
			cres, out, err := runTracked(Scenario{
				Faults: fault.Plan{
					Seed:    cfg.Seed,
					Crashes: []fault.Crash{{Node: 1, At: 0.7 * ref.Seconds, RecoverAt: 0}},
				},
				Ckpt: kernel.CkptPolicy{EverySeconds: frac * ref.Seconds},
				Img:  img, JobNodes: []int{core.NodeX86},
				MigrateAt: 0.25 * ref.Seconds, MigrateTo: core.NodeARM,
				Settle: 10 * ref.Seconds,
			})
			if err != nil {
				return nil, fmt.Errorf("exp: ckpt recovery %s frac=%.2f: %w", name, frac, err)
			}
			st := out.Mgr.Stats()
			row := CkptRecoveryRow{
				Bench: name, IntervalFrac: frac,
				Base: ref.Seconds, Seconds: cres.Seconds,
				WorkReplayed: st.WorkReplayedSeconds,
				Restores:     st.Restores,
				OutputMatch:  bytes.Equal(cres.Output, ref.Output),
			}
			res.Recovery = append(res.Recovery, row)
			cfg.printf("  recovery frac=%.2f %8.4fs replayed=%.1fµs restores=%d match=%v\n",
				frac, row.Seconds, row.WorkReplayed*1e6, row.Restores, row.OutputMatch)
		}
	}
	return res, nil
}

// CkptShapeHolds checks that capture is invisible to the output and that
// every crash was recovered from a checkpoint, exactly once.
func CkptShapeHolds(res *CkptResult) error {
	for _, r := range res.Overhead {
		if !r.OutputMatch {
			return fmt.Errorf("ckpt: %s at interval %g: capture changed the output", r.Bench, r.IntervalFrac)
		}
	}
	for _, r := range res.Recovery {
		if !r.OutputMatch || r.Restores != 1 {
			return fmt.Errorf("ckpt: %s at interval %g: restores=%d match=%v, want one restore and the baseline output",
				r.Bench, r.IntervalFrac, r.Restores, r.OutputMatch)
		}
	}
	return nil
}
