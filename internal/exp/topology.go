package exp

import (
	"fmt"
	"math"
	"strings"

	"heterodc/internal/core"
	"heterodc/internal/fault"
	"heterodc/internal/kernel"
	"heterodc/internal/mem"
	"heterodc/internal/member"
	"heterodc/internal/npb"
	"heterodc/internal/sched"
	"heterodc/internal/topo"
)

// The study's fat tree is 4 racks of 3 nodes, a shape where the 1:1/4:1/8:1
// sweep of uplink oversubscription has three distinct bottleneck regimes: at
// 3 nodes per rack no swept ratio ties the uplink to the access rate.
const topoRacks, topoPerRack = 4, 3

var topoOversubs = []float64{1, 4, 8}

// TopologyRow reports one (oversubscription, engine) cell: the costs that
// must grow with oversubscription (everything cross-rack) and the costs
// that must not (everything in-rack).
type TopologyRow struct {
	Engine  string  `json:"engine"`
	Racks   int     `json:"racks"`
	PerRack int     `json:"per_rack"`
	Nodes   int     `json:"nodes"`
	Oversub float64 `json:"oversub"`

	// Idle-fabric request/reply round trips.
	InRackRTTSec    float64 `json:"in_rack_rtt_sec"`
	CrossRackRTTSec float64 `json:"cross_rack_rtt_sec"`
	// GossipLearnSec is how long after one permanent crash the fleet
	// learns of the death under SWIM gossip while cross-rack background
	// flows load the uplinks: the mean instant of the declaration and of
	// every observer learning it through gossip. It is not the detection
	// time, which does not depend on uplink load: the first verdict lands
	// at the same instant at every oversubscription. FalseDeaths
	// counts verdicts against healthy nodes (must stay 0 — congestion may
	// delay detection, never fake it).
	GossipLearnSec float64 `json:"gossip_learn_sec"`
	FalseDeaths    int     `json:"false_deaths"`
	// Migration transfer time (request to completed thread arrival) for an
	// in-rack and a cross-rack process migration racing a bulk transfer.
	MigrateInRackSec    float64 `json:"migrate_in_rack_sec"`
	MigrateCrossRackSec float64 `json:"migrate_cross_rack_sec"`
	// Checkpoint fan-in: page gathers into one node from peers in the same
	// rack vs one sender per remote rack.
	FaninInRackSec    float64 `json:"fanin_in_rack_sec"`
	FaninCrossRackSec float64 `json:"fanin_cross_rack_sec"`
	// MaxUplinkUtil is the busiest uplink's utilisation over the gossip
	// scenario's horizon.
	MaxUplinkUtil float64 `json:"max_uplink_util"`

	fingerprint string
}

// verdictClock averages the instants of the traced death verdicts about
// one node: the declaration, and each observer learning it through gossip.
type verdictClock struct {
	about string // " node <id> (", as both trace texts name the dead node
	sum   float64
	k     int
}

func (c *verdictClock) Record(t float64, kind, detail string) {
	if kind == "member-dead" && strings.Contains(detail, c.about) {
		c.sum += t
		c.k++
	}
}

func (c *verdictClock) RecordNode(int, float64, string, string) {}

// topoFlowEndpoints returns the background flow's (src, dst) for rack r:
// the last node of r sending to the last node of the next rack, chosen so
// the flows load every ToR uplink while leaving the measurement nodes'
// access links untouched.
func topoFlowEndpoints(r, racks, perRack int) (int, int) {
	return r*perRack + perRack - 1, ((r+1)%racks)*perRack + perRack - 1
}

// runTopologyOnce executes the full scenario set for one oversubscription
// ratio on one engine.
func runTopologyOnce(cfg Config, engine string, racks, perRack int, oversub float64, seed int64) (TopologyRow, error) {
	n := racks * perRack
	spec := topo.Spec{Kind: topo.KindFatTree, Racks: racks, Oversub: oversub}
	row := TopologyRow{Engine: engine, Racks: racks, PerRack: perRack, Nodes: n, Oversub: oversub}

	hdr := kernel.DefaultInterconnect().HeaderBytes
	pageWire := int64(mem.PageSize) + hdr

	// --- Idle-fabric round trips (node 0 to an in-rack and a cross-rack
	// peer), the raw two-hop vs four-hop asymmetry.
	{
		fab, err := topo.Build(spec, n)
		if err != nil {
			return row, err
		}
		probe := func(to int) float64 {
			arrive := fab.Estimate(0, 0, to, hdr)
			return fab.Estimate(arrive, to, 0, pageWire)
		}
		row.InRackRTTSec = probe(1)
		row.CrossRackRTTSec = probe(perRack)
	}

	// --- Gossip detection under loaded uplinks: one permanent crash, SWIM
	// detection racing periodic cross-rack bursts. Burst size is tuned so
	// queueing delays stay under the probe timeout (no fake suspicions of
	// healthy nodes). The first verdict lands at the same instant whatever
	// the uplink load, so the row times the death as the fleet learns it:
	// the mean instant of the declaration and of each observer learning it,
	// through frames that cross the loaded uplinks to reach the other racks.
	var gossip string
	{
		const period = 1e-3
		crashAt := 20 * period
		horizon := crashAt + 30*period
		crash := perRack // first node of rack 1
		rig, err := Scenario{
			Arches: sched.RackArches(n), Topo: spec,
			Faults: fault.Plan{Seed: seed, Crashes: []fault.Crash{{Node: crash, At: crashAt, RecoverAt: 0}}},
			Member: &member.Config{HeartbeatPeriod: period, Seed: seed},
		}.Build(engine)
		if err != nil {
			return row, err
		}
		cl, fab, svc := rig.Cl, rig.Fab, rig.Svc
		verdicts := &verdictClock{about: fmt.Sprintf(" node %d (", crash)}
		cl.SetTracer(verdicts)
		// Background load: every burstGap, each rack pushes one burst to
		// the next rack, from the moment of the crash to the horizon. The
		// charges interleave with the run — occupancy must be consumed at
		// the simulated instant the flow exists, never ahead of it.
		const burstGap = 125e-6
		const burstBytes = 35_000
		for k := 0; crashAt+float64(k)*burstGap < horizon; k++ {
			at := crashAt + float64(k)*burstGap
			cl.Run(at)
			for r := 0; r < racks; r++ {
				src, dst := topoFlowEndpoints(r, racks, perRack)
				fab.Transmit(at, src, dst, burstBytes)
			}
		}
		cl.Run(horizon)
		if verdicts.k > 0 {
			row.GossipLearnSec = verdicts.sum/float64(verdicts.k) - crashAt
		}
		for _, d := range svc.Deaths() {
			if d.Node != crash {
				row.FalseDeaths++
			}
		}
		gossip = rig.Fingerprint()
		for _, ls := range fab.UplinkStats() {
			row.MaxUplinkUtil = max(row.MaxUplinkUtil, ls.BusySec/horizon)
		}
	}

	// --- Migration under load: a running job's thread migrates while a
	// 1 MiB bulk transfer per rack occupies the uplinks; the metric is
	// request-to-exit, which absorbs exactly the queueing the migrate
	// payload suffers on the way over. The in-rack hop avoids every
	// uplink, so its cost must not move with oversubscription.
	is, err := newBench(npb.IS, npb.ClassS)
	if err != nil {
		return row, err
	}
	migrate := func(target int) (float64, error) {
		rig, err := Scenario{Arches: sched.RackArches(n), Topo: spec}.Build(engine)
		if err != nil {
			return 0, err
		}
		cl, fab := rig.Cl, rig.Fab
		p, err := cl.Spawn(is.img, 0)
		if err != nil {
			return 0, err
		}
		treq := 0.3 * is.ref.Seconds
		cl.Run(treq)
		for r := 0; r < racks; r++ {
			src, dst := topoFlowEndpoints(r, racks, perRack)
			fab.Transmit(treq, src, dst, 1<<20)
		}
		cl.RequestProcessMigration(p, target)
		res, err := core.Wait(cl, p)
		if err != nil {
			return 0, err
		}
		if res.Migrations == 0 {
			return 0, fmt.Errorf("exp: topology: migration 0->%d never happened", target)
		}
		return res.Seconds - treq, nil
	}
	if row.MigrateInRackSec, err = migrate(1); err != nil {
		return row, err
	}
	if row.MigrateCrossRackSec, err = migrate(perRack); err != nil {
		return row, err
	}

	// --- Checkpoint fan-in: 32 page-sized gathers into node 0 from each
	// sender, either two in-rack peers or one sender per remote rack (the
	// restore path pulling image pages across the fabric). Cross-rack
	// fan-in is bottlenecked by node 0's spine->ToR downlink once
	// oversubscription pushes it below the access rate.
	fanin := func(senders ...int) (float64, error) {
		fab, err := topo.Build(spec, n)
		if err != nil {
			return 0, err
		}
		end := 0.0
		for i := 0; i < 32; i++ {
			for _, s := range senders {
				end = max(end, fab.Transmit(0, s, 0, pageWire))
			}
		}
		return end, nil
	}
	if row.FaninInRackSec, err = fanin(1, 2); err != nil {
		return row, err
	}
	var remote []int
	for r := 1; r < racks; r++ {
		remote = append(remote, r*perRack)
	}
	if row.FaninCrossRackSec, err = fanin(remote...); err != nil {
		return row, err
	}

	// The engine-comparison fingerprint: every measured value (the row
	// without its engine) and the gossip run's outcome.
	same := row
	same.Engine = ""
	row.fingerprint = fmt.Sprintf("%+v|%s", same, gossip)
	return row, nil
}

// Topology sweeps uplink oversubscription over a fat-tree rack fabric and
// measures what the flat pipe cannot express: gossip failure detection,
// thread migration and checkpoint fan-in each pay for crossing loaded
// uplinks, while in-rack traffic is immune. Every scenario runs on both
// engines and must be byte-identical.
func Topology(cfg Config) ([]TopologyRow, error) {
	var rows []TopologyRow
	for _, o := range topoOversubs {
		per, err := onBothEngines(func(engine string) (TopologyRow, string, error) {
			row, err := runTopologyOnce(cfg, engine, topoRacks, topoPerRack, o, cfg.Seed)
			if err != nil {
				return row, "", err
			}
			cfg.printf("topology %-3s oversub=%3g rtt %6.2f/%6.2fus learn=%7.3fms mig %7.3f/%7.3fms fanin %7.3f/%7.3fms util=%.3f\n",
				engine, o, row.InRackRTTSec*1e6, row.CrossRackRTTSec*1e6,
				row.GossipLearnSec*1e3, row.MigrateInRackSec*1e3, row.MigrateCrossRackSec*1e3,
				row.FaninInRackSec*1e3, row.FaninCrossRackSec*1e3, row.MaxUplinkUtil)
			return row, row.fingerprint, nil
		})
		if err != nil {
			return nil, fmt.Errorf("exp: topology at oversub %g: %w", o, err)
		}
		rows = append(rows, per[0], per[1])
	}
	return rows, nil
}

// TopologyShapeHolds asserts the study's claims: every cross-rack cost
// grows strictly with oversubscription, every in-rack cost is flat, the
// in-rack cost never exceeds its cross-rack counterpart, the crash is
// always detected and congestion never fakes a death.
func TopologyShapeHolds(rows []TopologyRow) error {
	byEngine := map[string][]TopologyRow{}
	for _, r := range rows {
		if r.GossipLearnSec <= 0 {
			return fmt.Errorf("topology: %s at oversub %g never detected the crash", r.Engine, r.Oversub)
		}
		if r.FalseDeaths != 0 {
			return fmt.Errorf("topology: %s at oversub %g declared %d healthy nodes dead", r.Engine, r.Oversub, r.FalseDeaths)
		}
		if r.InRackRTTSec >= r.CrossRackRTTSec {
			return fmt.Errorf("topology: in-rack RTT %g not below cross-rack %g at oversub %g",
				r.InRackRTTSec, r.CrossRackRTTSec, r.Oversub)
		}
		if r.MigrateInRackSec > r.MigrateCrossRackSec {
			return fmt.Errorf("topology: in-rack migration %g above cross-rack %g at oversub %g",
				r.MigrateInRackSec, r.MigrateCrossRackSec, r.Oversub)
		}
		if r.FaninInRackSec > r.FaninCrossRackSec {
			return fmt.Errorf("topology: in-rack fan-in %g above cross-rack %g at oversub %g",
				r.FaninInRackSec, r.FaninCrossRackSec, r.Oversub)
		}
		byEngine[r.Engine] = append(byEngine[r.Engine], r)
	}
	flat := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	for engine, rs := range byEngine {
		if len(rs) < 2 {
			return fmt.Errorf("topology: engine %s swept only %d oversubscription ratios", engine, len(rs))
		}
		for i := 1; i < len(rs); i++ {
			lo, hi := rs[i-1], rs[i]
			if hi.Oversub <= lo.Oversub {
				return fmt.Errorf("topology: %s rows not in ascending oversub order", engine)
			}
			for _, c := range []struct {
				name   string
				lo, hi float64
			}{
				{"cross-rack RTT", lo.CrossRackRTTSec, hi.CrossRackRTTSec},
				{"gossip learn time", lo.GossipLearnSec, hi.GossipLearnSec},
				{"cross-rack migration", lo.MigrateCrossRackSec, hi.MigrateCrossRackSec},
				{"cross-rack fan-in", lo.FaninCrossRackSec, hi.FaninCrossRackSec},
			} {
				if c.hi <= c.lo {
					return fmt.Errorf("topology: %s %s did not grow with oversubscription (%g at %g, %g at %g)",
						engine, c.name, c.lo, lo.Oversub, c.hi, hi.Oversub)
				}
			}
			for _, c := range []struct {
				name   string
				lo, hi float64
			}{
				{"in-rack RTT", lo.InRackRTTSec, hi.InRackRTTSec},
				{"in-rack migration", lo.MigrateInRackSec, hi.MigrateInRackSec},
				{"in-rack fan-in", lo.FaninInRackSec, hi.FaninInRackSec},
			} {
				if !flat(c.lo, c.hi) {
					return fmt.Errorf("topology: %s %s moved with oversubscription (%g at %g, %g at %g)",
						engine, c.name, c.lo, lo.Oversub, c.hi, hi.Oversub)
				}
			}
		}
	}
	return nil
}
