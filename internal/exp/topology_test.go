package exp

import "testing"

// TestTopologyShape runs the oversubscription sweep (which internally
// compares the seq and par engines byte for byte) and checks every claimed
// trend: cross-rack costs grow with oversubscription, in-rack costs don't.
func TestTopologyShape(t *testing.T) {
	rows, err := Topology(Config{Scale: Quick}, TopologyOptions{Seed: 1})
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	if len(rows) != 6 { // {1,4,8} x {seq,par}
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	if err := TopologyShapeHolds(rows); err != nil {
		t.Fatalf("shape: %v", err)
	}
}

// TestTopologyShapeHoldsRejects feeds the checker violated shapes.
func TestTopologyShapeHoldsRejects(t *testing.T) {
	good := func() []TopologyRow {
		var rows []TopologyRow
		for _, e := range []string{"seq", "par"} {
			for i, o := range []float64{1, 4} {
				rows = append(rows, TopologyRow{
					Engine: e, Oversub: o,
					InRackRTTSec: 1e-6, CrossRackRTTSec: 2e-6 + float64(i)*1e-6,
					GossipLearnSec:   4e-3 + float64(i)*1e-4,
					MigrateInRackSec: 1e-4, MigrateCrossRackSec: 2e-4 + float64(i)*1e-4,
					FaninInRackSec: 1e-4, FaninCrossRackSec: 2e-4 + float64(i)*1e-4,
				})
			}
		}
		return rows
	}
	if err := TopologyShapeHolds(good()); err != nil {
		t.Fatalf("valid shape rejected: %v", err)
	}
	bad := good()
	bad[1].GossipLearnSec = bad[0].GossipLearnSec // growth violated
	if err := TopologyShapeHolds(bad); err == nil {
		t.Error("flat gossip learn time accepted")
	}
	bad = good()
	bad[1].MigrateInRackSec *= 2 // flatness violated
	if err := TopologyShapeHolds(bad); err == nil {
		t.Error("moving in-rack migration accepted")
	}
	bad = good()
	bad[0].FalseDeaths = 1
	if err := TopologyShapeHolds(bad); err == nil {
		t.Error("false death accepted")
	}
	bad = good()
	bad[0].InRackRTTSec = bad[0].CrossRackRTTSec // asymmetry violated
	if err := TopologyShapeHolds(bad); err == nil {
		t.Error("in-rack >= cross-rack RTT accepted")
	}
}
