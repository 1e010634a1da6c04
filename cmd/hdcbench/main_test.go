package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heterodc/internal/cmdtest"
	"heterodc/internal/exp"
)

func TestFleetOptions(t *testing.T) {
	cases := []struct {
		name     string
		arrivals string
		rateSet  bool
		rate     float64
		sloSet   bool
		slo      float64
		wantErr  string // substring, "" means valid
		kinds    int
	}{
		{name: "all defaults"},
		{name: "every process", arrivals: "poisson,diurnal,bursty", kinds: 3},
		{name: "spaced and cased", arrivals: " Poisson , BURSTY ", kinds: 2},
		{name: "explicit rate and slo", rateSet: true, rate: 150, sloSet: true, slo: 0.5},
		{name: "unknown process", arrivals: "pareto", wantErr: "unknown arrival process"},
		{name: "empty element", arrivals: "poisson,", wantErr: "-arrivals"},
		{name: "zero rate", rateSet: true, rate: 0, wantErr: "positive finite rate"},
		{name: "negative rate", rateSet: true, rate: -3, wantErr: "positive finite rate"},
		{name: "inf rate", rateSet: true, rate: math.Inf(1), wantErr: "positive finite rate"},
		{name: "nan rate", rateSet: true, rate: math.NaN(), wantErr: "positive finite rate"},
		{name: "zero slo", sloSet: true, slo: 0, wantErr: "positive finite duration"},
		{name: "negative slo", sloSet: true, slo: -1, wantErr: "positive finite duration"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts, err := fleetOptions(c.arrivals, c.rateSet, c.rate, c.sloSet, c.slo)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if len(opts.Arrivals) != c.kinds {
				t.Errorf("got %d kinds, want %d", len(opts.Arrivals), c.kinds)
			}
			if c.rateSet && opts.Rate != c.rate {
				t.Errorf("rate %g, want %g", opts.Rate, c.rate)
			}
			if c.sloSet && opts.SLO.LatencyTargetSec != c.slo {
				t.Errorf("slo target %g, want %g", opts.SLO.LatencyTargetSec, c.slo)
			}
			if !c.rateSet && opts.Rate != 0 {
				t.Errorf("unset rate should defer to the scale default, got %g", opts.Rate)
			}
		})
	}
}

func TestStormOptions(t *testing.T) {
	cases := []struct {
		name     string
		rateSet  bool
		rate     float64
		sloSet   bool
		slo      float64
		mttfSet  bool
		mttf     float64
		mttrSet  bool
		mttr     float64
		wantErr  string // substring, "" means valid
		wantMTTF float64
	}{
		{name: "all defaults"},
		{name: "explicit rate and slo", rateSet: true, rate: 120, sloSet: true, slo: 0.5},
		{name: "churn pair", mttfSet: true, mttf: 0.8, mttrSet: true, mttr: 0.02, wantMTTF: 0.8},
		{name: "zero rate", rateSet: true, rate: 0, wantErr: "positive finite rate"},
		{name: "inf rate", rateSet: true, rate: math.Inf(1), wantErr: "positive finite rate"},
		{name: "nan slo", sloSet: true, slo: math.NaN(), wantErr: "positive finite duration"},
		{name: "mttf without mttr", mttfSet: true, mttf: 0.8, wantErr: "must be set together"},
		{name: "mttr without mttf", mttrSet: true, mttr: 0.02, wantErr: "must be set together"},
		{name: "zero mttf", mttfSet: true, mttf: 0, mttrSet: true, mttr: 0.02, wantErr: "-storm-mttf"},
		{name: "negative mttr", mttfSet: true, mttf: 0.8, mttrSet: true, mttr: -1, wantErr: "-storm-mttr"},
		{name: "repair slower than failure", mttfSet: true, mttf: 0.1, mttrSet: true, mttr: 0.5, wantErr: "not below -storm-mttf"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts, err := stormOptions(7, c.rateSet, c.rate, c.sloSet, c.slo, c.mttfSet, c.mttf, c.mttrSet, c.mttr)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if opts.Seed != 7 {
				t.Errorf("seed %d, want 7", opts.Seed)
			}
			if opts.MTTF != c.wantMTTF {
				t.Errorf("mttf %g, want %g", opts.MTTF, c.wantMTTF)
			}
			if c.rateSet && opts.Rate != c.rate {
				t.Errorf("rate %g, want %g", opts.Rate, c.rate)
			}
			if !c.rateSet && opts.Rate != 0 {
				t.Errorf("unset rate should defer to the scale default, got %g", opts.Rate)
			}
		})
	}
}

func TestParseFracs(t *testing.T) {
	cases := []struct {
		in      string
		want    []float64
		wantErr string // substring, "" means valid
	}{
		{"", nil, ""},
		{"0.0125", []float64{0.0125}, ""},
		{"0.0125, 0.025,0.05", []float64{0.0125, 0.025, 0.05}, ""},
		{"abc", nil, "bad fraction"},
		{"0.01,", nil, "bad fraction"},
		{"0", nil, "out of range"},
		{"-0.1", nil, "out of range"},
		{"1", nil, "out of range"},
		{"1.5", nil, "out of range"},
	}
	for _, c := range cases {
		got, err := parseFracs(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("parseFracs(%q) err = %v, want substring %q", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseFracs(%q): unexpected error %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseFracs(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseFracs(%q)[%d] = %g, want %g", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

func TestProfilesAreWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	out, errOut, code := cmdtest.Run(t, "-exp", "tab1", "-scale", "quick", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 || !strings.Contains(out, "===== tab1 =====") {
		t.Fatalf("exit %d, stderr %q, stdout %q", code, errOut, out)
	}
	for _, p := range []string{cpu, mem} {
		if !cmdtest.IsPprof(t, p) {
			t.Errorf("%s is not a profile", p)
		}
	}
}

func TestUnwritableProfileFailsBeforeTheRun(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "x.prof")
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		out, errOut, code := cmdtest.Run(t, "-exp", "tab1", "-scale", "quick", flag, missing)
		if code == 0 || !strings.Contains(errOut, flag) || !strings.Contains(errOut, "no-such-dir") {
			t.Errorf("%s: exit %d, stderr %q: want a failure naming the flag and the path", flag, code, errOut)
		}
		if strings.Contains(out, "=====") {
			t.Errorf("%s: an experiment started before the profile path was checked:\n%s", flag, out)
		}
	}
}

// A failed study still leaves a finished profile behind.
func TestProfileSurvivesAnUnknownExperiment(t *testing.T) {
	cpu := filepath.Join(t.TempDir(), "cpu.prof")
	_, errOut, code := cmdtest.Run(t, "-exp", "nonesuch", "-cpuprofile", cpu)
	if code != 2 || !strings.Contains(errOut, "unknown experiment") {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, s := range exp.Studies {
		if !strings.Contains(errOut, s.Name) {
			t.Errorf("stderr %q does not list %s", errOut, s.Name)
		}
	}
	if !cmdtest.IsPprof(t, cpu) {
		t.Errorf("%s was left unfinished", cpu)
	}
}

// A failed check is reported, the later studies still run, and the count
// main turns into exit status 1 says so.
func TestAFailedStudyDoesNotStopTheRest(t *testing.T) {
	ranLater := false
	table := []exp.Study{
		{Name: "doomed",
			Run:   func(exp.Config, exp.Options) (any, error) { return nil, nil },
			Check: func(any) (string, error) { return "", errors.New("shape lost") }},
		{Name: "later",
			Run: func(exp.Config, exp.Options) (any, error) { ranLater = true; return nil, nil }},
	}
	var out, errOut bytes.Buffer
	failed := runStudies(table, "all", exp.Config{W: &out}, exp.Options{}, "", &errOut)
	if failed != 1 || !ranLater {
		t.Errorf("failed = %d, later study ran = %v", failed, ranLater)
	}
	if !strings.Contains(errOut.String(), "doomed: shape lost") {
		t.Errorf("stderr %q does not report the failed check", errOut.String())
	}
	if strings.Contains(out.String(), "shape check: OK") || !strings.Contains(out.String(), "===== later =====") {
		t.Errorf("stdout %q", out.String())
	}
}

// inDir runs the rest of the test from dir: -check reads results/ there.
func inDir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(old) }) // restoring the directory the test began in cannot fail
}

func TestCheckPassesOnTheTree(t *testing.T) {
	inDir(t, "../..")
	out, errOut, code := cmdtest.Run(t, "-check", "-exp", "member-scaling")
	if code != 0 || !strings.Contains(out, "ok     results/membership-scaling.json") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	if _, errOut, code := cmdtest.Run(t, "-check", "-exp", "fuzz"); code != 1 || !strings.Contains(errOut, "no committed artefact") {
		t.Errorf("a study nothing records: exit %d, stderr %q", code, errOut)
	}
}

func TestCheckNamesTheDriftedFileAndLine(t *testing.T) {
	const file = "membership-scaling.json"
	data, err := os.ReadFile(filepath.Join("../../results", file))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte on the third line.
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines[2][len(lines[2])/2] ^= 1
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "results", file), bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	inDir(t, dir)
	out, errOut, code := cmdtest.Run(t, "-check", "-exp", "member-scaling")
	if code != 1 || !strings.Contains(out, "DRIFT  results/"+file+" [member-scaling] line 3\n") {
		t.Errorf("exit %d, stdout %q: want exit 1 naming the file and line 3", code, out)
	}
	if !strings.Contains(errOut, "1 of 1 recorded artefacts drifted") {
		t.Errorf("stderr %q", errOut)
	}
}
