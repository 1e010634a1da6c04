package exp

import (
	"testing"
)

func quick() Config { return Config{Scale: Quick} }

func TestFig1Quick(t *testing.T) {
	r, err := Fig1(quick())
	if err != nil {
		t.Fatalf("fig1: %v", err)
	}
	if err := r.ShapeHolds(); err != nil {
		t.Errorf("fig1 shape: %v", err)
	}
	for _, row := range r.Rows {
		t.Logf("fig1 %s %s t%d guest=%s slowdown=%.1fx", row.Bench, row.Class, row.Threads, row.Guest, row.Slowdown)
	}
}

func TestFig345Quick(t *testing.T) {
	rs, err := Fig345(quick())
	if err != nil {
		t.Fatalf("fig345: %v", err)
	}
	for _, r := range rs {
		if r.Post.Total == 0 {
			t.Errorf("%s: no migration points executed", r.Bench)
		}
		// Loop points (direct + counted polling) must shrink the largest
		// gap substantially — the figures' whole story.
		if r.PostMax*2 > r.PreMax {
			t.Errorf("%s: post max gap %d not well below pre max gap %d", r.Bench, r.PostMax, r.PreMax)
		}
		t.Logf("%s: pre n=%d max=%d; post n=%d max=%d", r.Bench, r.Pre.Total, r.PreMax, r.Post.Total, r.PostMax)
	}
}

func TestFig6789Quick(t *testing.T) {
	rows, err := Fig6789(quick())
	if err != nil {
		t.Fatalf("fig6789: %v", err)
	}
	if err := Fig6789ShapeHolds(rows); err != nil {
		t.Errorf("fig6789 shape: %v", err)
	}
	for _, r := range rows {
		t.Logf("%s %s t%d %s: %+.2f%%", r.Bench, r.Class, r.Threads, r.Arch, r.OverheadPct)
	}
}

func TestTable1Quick(t *testing.T) {
	rows, err := Table1(quick())
	if err != nil {
		t.Fatalf("tab1: %v", err)
	}
	if err := Table1ShapeHolds(rows); err != nil {
		t.Errorf("tab1 shape: %v", err)
	}
	for _, r := range rows {
		t.Logf("%s %s %s exec=%.4f l1i=%.3f", r.Bench, r.Class, r.Arch, r.ExecRatio, r.L1IMissRatio)
	}
}

func TestFig10Quick(t *testing.T) {
	rs, err := Fig10(quick())
	if err != nil {
		t.Fatalf("fig10: %v", err)
	}
	if err := Fig10ShapeHolds(rs); err != nil {
		t.Errorf("fig10 shape: %v", err)
	}
	for _, r := range rs {
		t.Logf("%s from %s: %s", r.Bench, r.SrcArch, r.Summary)
	}
}

func TestFig11Quick(t *testing.T) {
	r, err := Fig11(quick())
	if err != nil {
		t.Fatalf("fig11: %v", err)
	}
	if err := r.ShapeHolds(); err != nil {
		t.Errorf("fig11 shape: %v", err)
	}
	t.Logf("native=%.4fs managed=%.4fs ratio=%.2f", r.NativeSeconds, r.ManagedSeconds, r.ManagedSeconds/r.NativeSeconds)
}

func TestFig12Quick(t *testing.T) {
	sets, err := Fig12(quick())
	if err != nil {
		t.Fatalf("fig12: %v", err)
	}
	if err := Fig12ShapeHolds(sets); err != nil {
		t.Errorf("fig12 shape: %v", err)
	}
	t.Logf("%+v", SummarizeFig12(sets))
}

func TestFig13Quick(t *testing.T) {
	sets, err := Fig13(quick())
	if err != nil {
		t.Fatalf("fig13: %v", err)
	}
	if err := Fig13ShapeHolds(sets); err != nil {
		t.Errorf("fig13 shape: %v", err)
	}
	for _, fs := range sets {
		t.Logf("set %d: static E=%.2fJ EDP=%.4f; dynamic E=%.2fJ EDP=%.4f",
			fs.Set, fs.Static.EnergyTotal, fs.Static.EDP, fs.Dynamic.EnergyTotal, fs.Dynamic.EDP)
	}
}
