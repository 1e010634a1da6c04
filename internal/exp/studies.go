package exp

import "fmt"

// Options carries each study's own options; a study reads only its field.
type Options struct {
	Chaos       ChaosOptions
	Ckpt        CkptOptions
	Detector    DetectorOptions
	Fuzz        FuzzOptions
	MemberScale MemberScaleOptions
	Partition   PartitionOptions
	Topology    TopologyOptions
	Fleet       FleetOptions
	Storm       StormOptions
}

// SeededOptions gives every study that draws fault or rotation streams the
// one seed hdcbench's -fault-seed hands them all.
func SeededOptions(seed int64) Options {
	return Options{
		Chaos:       ChaosOptions{Seed: seed},
		Ckpt:        CkptOptions{Seed: seed},
		Detector:    DetectorOptions{Seed: seed},
		MemberScale: MemberScaleOptions{Seed: seed},
		Partition:   PartitionOptions{Seed: seed},
		Topology:    TopologyOptions{Seed: seed},
		Storm:       StormOptions{Seed: seed},
	}
}

// Study is one row of the study table: everything hdcbench needs to run,
// judge, record (-json) and re-verify (-check) one experiment.
type Study struct {
	Name string
	// Run regenerates the study, printing through cfg.W, and returns its
	// rows — what -json records.
	Run func(cfg Config, opts Options) (rows any, err error)
	// Check judges the rows Run returned: the text of the "shape check: OK
	// (…)" line, or why the shape does not hold. Nil for the studies that
	// only print (fig345, ablation, rack).
	Check func(rows any) (ok string, err error)
}

// Report runs s the way hdcbench prints it — header, rows, shape-check
// line — so a recorded section and a regenerated one are the same bytes.
func (s Study) Report(cfg Config, opts Options) (rows any, err error) {
	cfg.printf("\n===== %s =====\n", s.Name)
	if rows, err = s.Run(cfg, opts); err != nil || s.Check == nil {
		return rows, err
	}
	ok, err := s.Check(rows)
	if err != nil {
		return nil, err
	}
	cfg.printf("shape check: OK (%s)\n", ok)
	return rows, nil
}

// study types one table row: run's rows reach check unconverted.
func study[R any](name string, run func(Config, Options) (R, error), check func(R) (string, error)) Study {
	s := Study{Name: name, Run: func(cfg Config, opts Options) (any, error) { return run(cfg, opts) }}
	if check != nil {
		s.Check = func(rows any) (string, error) { return check(rows.(R)) }
	}
	return s
}

// holds pairs a ShapeHolds-style check with the text printed when it passes.
func holds[R any](check func(R) error, ok string) func(R) (string, error) {
	return func(rows R) (string, error) { return ok, check(rows) }
}

// plain adapts a study that takes no options of its own.
func plain[R any](run func(Config) (R, error)) func(Config, Options) (R, error) {
	return func(cfg Config, _ Options) (R, error) { return run(cfg) }
}

// Studies is the study table, in the order `-exp all` runs it.
var Studies = []Study{
	study("fig1", plain(Fig1), holds((*Fig1Result).ShapeHolds, "emulation 1-4 orders of magnitude; x86-on-ARM far worse")),
	study("fig345", plain(Fig345), nil),
	study("fig6789", plain(Fig6789), holds(Fig6789ShapeHolds, "migration-point overhead small, mostly <5%")),
	study("tab1", plain(Table1), holds(Table1ShapeHolds, "alignment costs ~1% or less")),
	study("fig10", plain(Fig10), holds(Fig10ShapeHolds, "x86 < ~400µs, ARM ~2x")),
	study("fig11", plain(Fig11), holds((*Fig11Result).ShapeHolds, "managed ~2x native end-to-end; native resumes immediately")),
	study("fig12", plain(Fig12), holds(Fig12ShapeHolds, "dynamic policies trade makespan for energy")),
	study("ablation", plain(Ablation), nil),
	study("rack", plain(RackScale), nil),
	study("chaos", func(cfg Config, o Options) ([]ChaosRow, error) { return Chaos(cfg, o.Chaos) },
		holds(ChaosShapeHolds, "every run exits cleanly with baseline-identical output")),
	study("ckpt", func(cfg Config, o Options) (*CkptResult, error) { return Ckpt(cfg, o.Ckpt) },
		holds(CkptShapeHolds, "capture invisible to output; every crash recovered from checkpoint")),
	study("detector", func(cfg Config, o Options) ([]DetectorRow, error) { return Detector(cfg, o.Detector) },
		holds(DetectorShapeHolds, "every crash detected by silence; false positives refuted by rejoin; no stranded jobs")),
	study("fuzz", func(cfg Config, o Options) (*FuzzResult, error) { return Fuzz(cfg, o.Fuzz) },
		func(res *FuzzResult) (string, error) {
			return fmt.Sprintf("%d programs, %.1f/s, all five modes byte-identical", res.Programs, res.ProgramsPerSec),
				FuzzShapeHolds(res)
		}),
	study("member-scaling", func(cfg Config, o Options) ([]MemberScaleRow, error) { return MemberScale(cfg, o.MemberScale) },
		holds(MemberScaleShapeHolds, "SWIM traffic flat and state sub-quadratic; detection under the lease baseline's 8 ms; no false deaths")),
	study("partition", func(cfg Config, o Options) ([]PartitionRow, error) { return Partition(cfg, o.Partition) },
		holds(PartitionInvariantsHold, "no split-brain restore or quorumless verdict; views reconverge on both engines")),
	study("topology", func(cfg Config, o Options) ([]TopologyRow, error) { return Topology(cfg, o.Topology) },
		holds(TopologyShapeHolds, "cross-rack costs grow with oversubscription, in-rack costs flat; engines byte-identical")),
	study("fleet", func(cfg Config, o Options) ([]FleetSeries, error) { return Fleet(cfg, o.Fleet) },
		func(series []FleetSeries) (string, error) {
			ok := "every rollout reached 100% ARM within budget; engines byte-identical per wave"
			for _, s := range series {
				if !s.RolledOut {
					ok = "gating engaged; no wave advanced while violating; engines byte-identical per wave"
				}
			}
			return ok, FleetInvariantsHold(series)
		}),
	study("storm", func(cfg Config, o Options) (*StormResult, error) { return Storm(cfg, o.Storm) },
		holds(StormInvariantsHold, "SLO degraded gracefully under chaos and recovered post-heal; no checkpointed job lost; engines byte-identical")),
	study("fig13", plain(Fig13), holds(Fig13ShapeHolds, "migration reduces energy for bursty arrivals")),
}
