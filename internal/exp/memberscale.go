package exp

import (
	"fmt"
	"math"

	"heterodc/internal/fault"
	"heterodc/internal/member"
	"heterodc/internal/sched"
)

// MemberScaleRow reports one rack size: the per-node message rate that must
// stay flat as the rack grows, the detector state that must stay
// sub-quadratic, and the detection quality that must not regress against
// the recorded PR-5 lease baseline (DESIGN.md §12).
type MemberScaleRow struct {
	Protocol string `json:"protocol"` // always "swim"; kept so recorded rows stay comparable
	Nodes    int    `json:"nodes"`
	Rounds   int    `json:"rounds"`
	// MsgsPerNodeRound is membership messages sent per node per protocol
	// round — O(1) for SWIM (the all-pairs lease baseline paid O(N)).
	MsgsPerNodeRound float64 `json:"msgs_per_node_round"`
	// StateRecords is the fleet-wide detector state: materialized view
	// records summed over observers (a dense detector holds n*(n-1)).
	StateRecords int `json:"state_records"`
	// DetectionLatency is crash-to-first-verdict for the one injected
	// permanent crash; 0 means the crash went undetected.
	DetectionLatency float64 `json:"detection_latency_sec"`
	// FalseDeaths counts death verdicts against nodes that never crashed —
	// the detector's false-positive rate under 1% message loss.
	FalseDeaths int    `json:"false_deaths"`
	Suspicions  uint64 `json:"suspicions"`
	Deaths      uint64 `json:"deaths"`
	// DeferredVerdicts counts verdicts parked for lack of quorum (always 0
	// here — the crash leaves an overwhelming majority).
	DeferredVerdicts uint64 `json:"deferred_verdicts"`
	GossipUpdates    uint64 `json:"gossip_updates"`
}

// memberScaleMaxDetect bounds crash-to-verdict latency at the study's 1 ms
// period. The lease baseline took 8.0–9.1 ms (its capped-backoff re-checks);
// SWIM reads 5.1–7.7 ms and must stay below the baseline's best. It grows
// with the fleet because a verdict's confirmations are gathered only after
// its deadline, and the gossip takes about three rounds to bring a majority
// of 256 nodes into one set.
const memberScaleMaxDetect = 8e-3

// MemberScale runs a workload-free fleet of each size under the SWIM detector
// for a fixed number of rounds with 1% message loss and one permanent
// crash, and reports traffic, state and detection quality. The fleet is
// driven purely by the membership service (no processes), exactly the
// between-jobs regime the idle-gap fix keeps alive. Each size runs on both
// time engines, which must agree. The rack sizes are {8, 16} at Quick scale
// and the acceptance grid {8, 64, 256} otherwise; the fleet runs 60 rounds.
func MemberScale(cfg Config) ([]MemberScaleRow, error) {
	sizes := []int{8, 64, 256}
	if cfg.Scale == Quick {
		sizes = []int{8, 16}
	}
	rounds := 60
	const period = 1e-3
	crashAt := 20 * period
	horizon := float64(rounds) * period

	var rows []MemberScaleRow
	for _, n := range sizes {
		outs, err := Scenario{
			Arches: sched.RackArches(n), Topo: cfg.Topo,
			Faults: fault.Plan{
				Seed:     cfg.Seed,
				DropProb: 0.01,
				Crashes:  []fault.Crash{{Node: 1, At: crashAt, RecoverAt: 0}},
			},
			Member: &member.Config{HeartbeatPeriod: period, Seed: cfg.Seed},
			Settle: horizon,
		}.runBoth()
		if err != nil {
			return nil, fmt.Errorf("exp: member-scale at n=%d: %w", n, err)
		}
		det, st := outs[0].Svc, outs[0].Svc.Stats()
		row := MemberScaleRow{
			Protocol: "swim", Nodes: n, Rounds: rounds,
			MsgsPerNodeRound: float64(st.HeartbeatsSent) / float64(n) / float64(rounds),
			StateRecords:     det.StateRecords(),
			Suspicions:       st.Suspicions,
			Deaths:           st.Deaths,
			DeferredVerdicts: st.DeferredVerdicts,
			GossipUpdates:    st.GossipUpdates,
		}
		for _, d := range det.Deaths() {
			if d.Node == 1 && row.DetectionLatency == 0 {
				row.DetectionLatency = d.At - crashAt
			}
			if d.Node != 1 {
				row.FalseDeaths++
			}
		}
		rows = append(rows, row)
		cfg.printf("member-scale %-5s n=%-4d msgs/node/round=%7.2f state=%8d detect=%6.2fms falsedeaths=%d deferred=%d\n",
			row.Protocol, n, row.MsgsPerNodeRound, row.StateRecords,
			row.DetectionLatency*1e3, row.FalseDeaths, row.DeferredVerdicts)
	}
	return rows, nil
}

// MemberScaleShapeHolds asserts the scaling claims the study exists for:
// SWIM's per-node message rate stays flat and its state sub-quadratic as
// the rack grows, the injected crash is always detected — faster than the
// lease baseline ever did — and nothing is ever falsely declared dead.
func MemberScaleShapeHolds(rows []MemberScaleRow) error {
	if len(rows) < 2 {
		return fmt.Errorf("member-scale: need >= 2 sizes (got %d)", len(rows))
	}
	minMsgs, maxMsgs := math.Inf(1), 0.0
	for _, r := range rows {
		if r.DetectionLatency <= 0 {
			return fmt.Errorf("member-scale: n=%d never detected the crash", r.Nodes)
		}
		if r.DetectionLatency >= memberScaleMaxDetect {
			return fmt.Errorf("member-scale: detection %.2fms at n=%d, not below the lease baseline's %.1fms",
				r.DetectionLatency*1e3, r.Nodes, memberScaleMaxDetect*1e3)
		}
		if r.FalseDeaths != 0 {
			return fmt.Errorf("member-scale: n=%d declared %d healthy nodes dead", r.Nodes, r.FalseDeaths)
		}
		if r.MsgsPerNodeRound < minMsgs {
			minMsgs = r.MsgsPerNodeRound
		}
		if r.MsgsPerNodeRound > maxMsgs {
			maxMsgs = r.MsgsPerNodeRound
		}
		// Sub-quadratic state: a dense detector would hold n*(n-1) records.
		if r.Nodes >= 16 && r.StateRecords >= r.Nodes*(r.Nodes-1)/2 {
			return fmt.Errorf("member-scale: swim state %d at n=%d is not sub-quadratic",
				r.StateRecords, r.Nodes)
		}
	}
	// With no fan-out anywhere the recorded rates sit within 3 % of each
	// other; a pattern that grows with the fleet shows here first.
	if maxMsgs > 1.5*minMsgs {
		return fmt.Errorf("member-scale: swim per-node traffic not flat across sizes (%.2f..%.2f msgs/node/round)",
			minMsgs, maxMsgs)
	}
	return nil
}
