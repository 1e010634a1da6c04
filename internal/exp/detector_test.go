package exp

import "testing"

// TestDetectorStudy is the acceptance gate for SWIM failure
// detection end to end: for every swept heartbeat period, a permanently
// crashed node must be detected (not oracle-reported) and the job restored
// from checkpoint, a transient outage that outlives the detector's patience
// must be refuted by the rejoining node's bumped incarnation, and no run
// may end with a stranded job or an un-fenced stale-incarnation message.
func TestDetectorStudy(t *testing.T) {
	rows, err := Detector(Config{Scale: Quick}, DetectorOptions{Seed: 11})
	if err != nil {
		t.Fatalf("detector study: %v", err)
	}
	if len(rows) != 12 { // 2 benches x 3 periods x 2 scenarios
		t.Fatalf("got %d rows, want 12", len(rows))
	}
	periods := map[float64]bool{}
	for _, r := range rows {
		periods[r.HeartbeatPeriod] = true
		if r.Stranded != 0 {
			t.Errorf("%s %s hb=%g: %d stranded jobs", r.Bench, r.Scenario, r.HeartbeatPeriod, r.Stranded)
		}
		if r.StaleUnfenced != 0 {
			t.Errorf("%s %s hb=%g: %d stale-incarnation messages delivered unfenced",
				r.Bench, r.Scenario, r.HeartbeatPeriod, r.StaleUnfenced)
		}
		if !r.ExitOK || !r.OutputMatch {
			t.Errorf("%s %s hb=%g: exit=%v match=%v", r.Bench, r.Scenario, r.HeartbeatPeriod, r.ExitOK, r.OutputMatch)
		}
		if r.Deaths == 0 {
			t.Errorf("%s %s hb=%g: outage never declared dead", r.Bench, r.Scenario, r.HeartbeatPeriod)
		}
		// Detection is inferred from silence: it must lag the crash by at
		// least the suspicion timeout, and the job only finishes via restore.
		if r.DetectionLatency < r.SuspectTimeout {
			t.Errorf("%s %s hb=%g: detection latency %g below suspicion timeout %g",
				r.Bench, r.Scenario, r.HeartbeatPeriod, r.DetectionLatency, r.SuspectTimeout)
		}
		if r.Restores == 0 {
			t.Errorf("%s %s hb=%g: no checkpoint restore", r.Bench, r.Scenario, r.HeartbeatPeriod)
		}
		if r.Scenario == "transient" && r.FalseSuspicions == 0 {
			t.Errorf("%s hb=%g: transient outage's death never refuted", r.Bench, r.HeartbeatPeriod)
		}
	}
	if len(periods) < 3 {
		t.Errorf("study swept %d distinct heartbeat periods, want >= 3", len(periods))
	}
}

// TestDetectorRowsMatchAcrossEngines: one heartbeat period's runs give the
// same row on both engines. The job's runtime is its exit instant and the
// counters are read at the settle horizon; the instant the job loop
// noticed the exit (a quantum under seq, a window under par) is in none.
func TestDetectorRowsMatchAcrossEngines(t *testing.T) {
	benches, err := Config{Scale: Quick}.chaosBenches()
	if err != nil {
		t.Fatal(err)
	}
	b := benches[1]
	for _, sc := range detectorScenarios(b, 7, 1.0/40) {
		var rows [2]DetectorRow
		for i, engine := range []string{"seq", "par"} {
			out, err := sc.Run(engine)
			if err != nil {
				t.Fatalf("%s on %s: %v", sc.Name, engine, err)
			}
			rows[i] = detectorRow(b, sc.Name, out)
		}
		if rows[0] != rows[1] {
			t.Errorf("%s: engines diverge:\nseq %+v\npar %+v", sc.Name, rows[0], rows[1])
		}
		if !rows[0].ExitOK || rows[0].Restores == 0 {
			t.Errorf("%s: exit=%v restores=%d, want a clean exit after a restore", sc.Name, rows[0].ExitOK, rows[0].Restores)
		}
	}
}
