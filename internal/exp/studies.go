package exp

import "fmt"

// Study is one row of the study table: everything hdcbench needs to run,
// judge, record (-json) and re-verify (-check) one experiment.
type Study struct {
	Name string
	// Run regenerates the study, printing through cfg.W, and returns its
	// rows — what -json records.
	Run func(cfg Config) (rows any, err error)
	// Check judges the rows Run returned: the text of the "shape check: OK
	// (…)" line, or why the shape does not hold. Nil for the studies that
	// only print (fig345, ablation, rack).
	Check func(rows any) (ok string, err error)
	// Reads names the Config fields Run reads besides Scale and W, which
	// every study is handed: a flag that sets any other field would be
	// ignored, so hdcbench rejects it.
	Reads []string
}

// Report runs s the way hdcbench prints it — header, rows, shape-check
// line — so a recorded section and a regenerated one are the same bytes.
func (s Study) Report(cfg Config) (rows any, err error) {
	cfg.printf("\n===== %s =====\n", s.Name)
	if rows, err = s.Run(cfg); err != nil || s.Check == nil {
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
func study[R any](name string, run func(Config) (R, error), check func(R) (string, error), reads ...string) Study {
	s := Study{Name: name, Run: func(cfg Config) (any, error) { return run(cfg) }, Reads: reads}
	if check != nil {
		s.Check = func(rows any) (string, error) { return check(rows.(R)) }
	}
	return s
}

// holds pairs a ShapeHolds-style check with the text printed when it passes.
func holds[R any](check func(R) error, ok string) func(R) (string, error) {
	return func(rows R) (string, error) { return ok, check(rows) }
}

// Studies is the study table, in the order `-exp all` runs it.
var Studies = []Study{
	study("fig1", Fig1, holds((*Fig1Result).ShapeHolds, "emulation 1-4 orders of magnitude; x86-on-ARM far worse")),
	study("fig345", Fig345, nil),
	study("fig6789", Fig6789, holds(Fig6789ShapeHolds, "migration-point overhead small, mostly <5%")),
	study("tab1", Table1, holds(Table1ShapeHolds, "alignment costs ~1% or less")),
	study("fig10", Fig10, holds(Fig10ShapeHolds, "x86 < ~400µs, ARM ~2x")),
	study("fig11", Fig11, holds((*Fig11Result).ShapeHolds, "managed ~2x native end-to-end; native resumes immediately")),
	study("fig12", Fig12, holds(Fig12ShapeHolds, "dynamic policies trade makespan for energy")),
	study("ablation", Ablation, nil),
	study("rack", RackScale, nil, "RackNodes", "Topo"),
	study("chaos", Chaos, holds(ChaosShapeHolds, "every run exits cleanly with baseline-identical output"), "Seed", "DropProb", "CrashFrac"),
	study("ckpt", Ckpt, holds(CkptShapeHolds, "capture invisible to output; every crash recovered from checkpoint"), "Seed"),
	study("detector", Detector, holds(DetectorShapeHolds, "every crash detected by silence; false positives refuted by rejoin; no stranded jobs"), "Seed", "PeriodFracs"),
	study("fuzz", Fuzz, func(res *FuzzResult) (string, error) {
		return fmt.Sprintf("%d programs, %.1f/s, all five modes byte-identical", res.Programs, res.ProgramsPerSec),
			FuzzShapeHolds(res)
	}, "FuzzSeed", "FuzzBudget", "FuzzMax", "CorpusDir"),
	study("member-scaling", MemberScale, holds(MemberScaleShapeHolds, "SWIM traffic flat and state sub-quadratic; detection under the lease baseline's 8 ms; no false deaths"), "Seed", "Topo"),
	study("partition", Partition, holds(PartitionInvariantsHold, "no split-brain restore or quorumless verdict; views reconverge on both engines"), "Seed"),
	study("topology", Topology, holds(TopologyShapeHolds, "cross-rack costs grow with oversubscription, in-rack costs flat; engines byte-identical"), "Seed"),
	study("fleet", Fleet, func(series []FleetSeries) (string, error) {
		ok := "every rollout reached 100% ARM within budget; engines byte-identical per wave"
		for _, s := range series {
			if !s.RolledOut {
				ok = "gating engaged; no wave advanced while violating; engines byte-identical per wave"
			}
		}
		return ok, FleetInvariantsHold(series)
	}, "Rate", "SLO", "Arrivals", "Topo"),
	study("storm", Storm, holds(StormInvariantsHold, "SLO degraded gracefully under chaos and recovered post-heal; no checkpointed job lost; engines byte-identical"), "Seed", "Rate", "SLO", "MTTF", "MTTR"),
	study("fig13", Fig13, holds(Fig13ShapeHolds, "migration reduces energy for bursty arrivals")),
}
