package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"heterodc/internal/cmdtest"
	"heterodc/internal/exp"
	"heterodc/internal/topo"
	"heterodc/internal/traffic"
)

// defaults is the config an empty command line builds.
var defaults = exp.Config{
	Scale: exp.Default, Seed: 7, Topo: topo.Spec{Kind: topo.KindFlat},
	RackNodes: 4, DropProb: 0.02, CrashFrac: 0.35, FuzzSeed: 1,
}

// flagCase is one command line for parseArgs: it fails with wantErr in the
// message, or builds defaults with edit applied.
type flagCase struct {
	name    string
	args    []string
	wantErr string // substring, "" means valid
	edit    func(*exp.Config)
}

func runFlagCases(t *testing.T, cases []flagCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("hdcbench", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			cmd, err := parseArgs(fs, c.args)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			want := defaults
			if c.edit != nil {
				c.edit(&want)
			}
			if !reflect.DeepEqual(cmd.cfg, want) {
				t.Errorf("config\n got %+v\nwant %+v", cmd.cfg, want)
			}
		})
	}
}

func TestFleetOptions(t *testing.T) {
	runFlagCases(t, []flagCase{
		{name: "all defaults"},
		{name: "every process", args: []string{"-arrivals", "poisson,diurnal,bursty"},
			edit: func(c *exp.Config) { c.Arrivals = traffic.Kinds() }},
		{name: "spaced and cased", args: []string{"-arrivals", " Poisson , BURSTY "},
			edit: func(c *exp.Config) { c.Arrivals = []traffic.Kind{traffic.KindPoisson, traffic.KindBursty} }},
		{name: "explicit rate and slo", args: []string{"-rate", "150", "-slo", "0.5"},
			edit: func(c *exp.Config) { c.Rate, c.SLO = 150, 0.5 }},
		{name: "unknown process", args: []string{"-arrivals", "pareto"}, wantErr: "unknown arrival process"},
		{name: "empty element", args: []string{"-arrivals", "poisson,"}, wantErr: "-arrivals"},
		{name: "zero rate", args: []string{"-rate", "0"}, wantErr: "positive finite rate"},
		{name: "negative rate", args: []string{"-rate", "-3"}, wantErr: "positive finite rate"},
		{name: "inf rate", args: []string{"-rate", "+Inf"}, wantErr: "positive finite rate"},
		{name: "nan rate", args: []string{"-rate", "NaN"}, wantErr: "positive finite rate"},
		{name: "zero slo", args: []string{"-slo", "0"}, wantErr: "positive finite duration"},
		{name: "negative slo", args: []string{"-slo", "-1"}, wantErr: "positive finite duration"},
	})
}

func TestStormOptions(t *testing.T) {
	runFlagCases(t, []flagCase{
		{name: "all defaults"},
		{name: "explicit rate and slo", args: []string{"-rate", "120", "-slo", "0.5"},
			edit: func(c *exp.Config) { c.Rate, c.SLO = 120, 0.5 }},
		{name: "churn pair", args: []string{"-storm-mttf", "0.8", "-storm-mttr", "0.02"},
			edit: func(c *exp.Config) { c.MTTF, c.MTTR = 0.8, 0.02 }},
		{name: "zero rate", args: []string{"-rate", "0"}, wantErr: "positive finite rate"},
		{name: "inf rate", args: []string{"-rate", "+Inf"}, wantErr: "positive finite rate"},
		{name: "nan slo", args: []string{"-slo", "NaN"}, wantErr: "positive finite duration"},
		{name: "mttf without mttr", args: []string{"-storm-mttf", "0.8"}, wantErr: "must be set together"},
		{name: "mttr without mttf", args: []string{"-storm-mttr", "0.02"}, wantErr: "must be set together"},
		{name: "zero mttf", args: []string{"-storm-mttf", "0", "-storm-mttr", "0.02"}, wantErr: "-storm-mttf"},
		{name: "negative mttr", args: []string{"-storm-mttf", "0.8", "-storm-mttr", "-1"}, wantErr: "-storm-mttr"},
		{name: "repair slower than failure", args: []string{"-storm-mttf", "0.1", "-storm-mttr", "0.5"}, wantErr: "not below -storm-mttf"},
	})
}

// A flag a study would ignore or silently replace fails instead.
func TestIgnoredFlagsFailLoudly(t *testing.T) {
	runFlagCases(t, []flagCase{
		{name: "seeds and scale", args: []string{"-fault-seed", "13", "-fuzz-seed", "5", "-scale", "quick"},
			edit: func(c *exp.Config) { c.Seed, c.FuzzSeed, c.Scale = 13, 5, exp.Quick }},
		{name: "unknown scale", args: []string{"-scale", "huge"}, wantErr: `unknown scale "huge"`},
		{name: "fat tree", args: []string{"-topo", "fattree", "-racks", "4", "-oversub", "3"},
			edit: func(c *exp.Config) { c.Topo = topo.FatTree(4, 3) }},
		{name: "racks without fattree", args: []string{"-racks", "4"}, wantErr: "-racks/-oversub need -topo fattree"},
		{name: "oversub on flat", args: []string{"-topo", "flat", "-oversub", "3"}, wantErr: "-racks/-oversub need -topo fattree"},
		{name: "unknown topo", args: []string{"-topo", "bogus"}, wantErr: `topo: unknown fabric kind "bogus"`},
		{name: "negative racks", args: []string{"-topo", "fattree", "-racks", "-2"}, wantErr: "rack count must be positive"},
		{name: "drop prob zero", args: []string{"-drop-prob", "0"}, wantErr: "-drop-prob"},
		{name: "drop prob negative", args: []string{"-drop-prob", "-1"}, wantErr: "-drop-prob"},
		{name: "drop prob one", args: []string{"-drop-prob", "1"}, wantErr: "-drop-prob"},
		{name: "drop prob nan", args: []string{"-drop-prob", "NaN"}, wantErr: "-drop-prob"},
		{name: "drop prob in range", args: []string{"-drop-prob", "0.2"},
			edit: func(c *exp.Config) { c.DropProb = 0.2 }},
		{name: "crash at zero", args: []string{"-crash-at", "0"}, wantErr: "-crash-at"},
		{name: "crash past the run", args: []string{"-crash-at", "7"}, wantErr: "-crash-at"},
		{name: "crash at one", args: []string{"-crash-at", "1"}, wantErr: "-crash-at"},
		{name: "crash in range", args: []string{"-crash-at", "0.5"},
			edit: func(c *exp.Config) { c.CrashFrac = 0.5 }},
		{name: "rack nodes negative", args: []string{"-rack-nodes", "-5"}, wantErr: "-rack-nodes"},
		{name: "rack nodes zero", args: []string{"-rack-nodes", "0"}, wantErr: "-rack-nodes"},
		{name: "rack nodes one", args: []string{"-rack-nodes", "1"}, wantErr: "-rack-nodes"},
		{name: "rack nodes two", args: []string{"-rack-nodes", "2"},
			edit: func(c *exp.Config) { c.RackNodes = 2 }},
		{name: "heartbeat fractions", args: []string{"-hb-fracs", "0.1,0.2"},
			edit: func(c *exp.Config) { c.PeriodFracs = []float64{0.1, 0.2} }},
		{name: "fuzz bounds", args: []string{"-fuzz-budget", "2s", "-fuzz-max", "9"},
			edit: func(c *exp.Config) { c.FuzzBudget, c.FuzzMax = 2*time.Second, 9 }},
	})
}

// The command line that ran fig10 and exited 0 while ignoring or replacing
// five of its flags now exits 2 before any study starts.
func TestIgnoredFlagsExitTwo(t *testing.T) {
	out, errOut, code := cmdtest.Run(t, "-exp", "fig10", "-scale", "quick", "-topo", "bogus", "-racks", "4",
		"-oversub", "3", "-drop-prob", "-1", "-crash-at", "7", "-rack-nodes", "-5")
	if code != 2 || out != "" || !strings.Contains(errOut, `unknown fabric kind "bogus"`) {
		t.Errorf("exit %d, stdout %q, stderr %q", code, out, errOut)
	}
}

// A flag the selected study does not read, or any study flag under -check
// (which replaces the config with each artefact's recorded one), exits 2
// naming the flag before anything runs. These command lines ran and exited 0.
func TestUnreadFlagsExitTwo(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "tab1", "-scale", "quick", "-topo", "fattree", "-racks", "2", "-arrivals", "bursty", "-rate", "50",
			"-storm-mttf", "1", "-storm-mttr", "0.1", "-hb-fracs", "0.1", "-fuzz-max", "3"}, "-arrivals: experiment tab1 does not read it"},
		{[]string{"-exp", "storm", "-topo", "fattree"}, "-topo: experiment storm does not read it"},
		{[]string{"-exp", "fleet", "-fault-seed", "3"}, "-fault-seed: experiment fleet does not read it"},
		{[]string{"-check", "-exp", "chaos", "-drop-prob", "0.5"}, "-drop-prob: -check"},
		{[]string{"-check", "-scale", "quick"}, "-scale: -check"},
	} {
		out, errOut, code := cmdtest.Run(t, c.args...)
		if code != 2 || out != "" || !strings.Contains(errOut, c.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q: want exit 2 and %q", c.args, code, out, errOut, c.want)
		}
	}
}

// docCommand finds an hdcbench command line in a document, run as `go run
// ./cmd/hdcbench`, `/tmp/hdcbench` or quoted as `hdcbench ...`.
var docCommand = regexp.MustCompile("(?:go run \\./cmd/|/tmp/|`(?:cmd/)?)hdcbench((?: -[a-z-]+(?: [^ #(-][^ ]*)?)*)")

// Every hdcbench command line the documents and CI show still parses. A
// placeholder study (<name>, CI's "$study") stands for every study, and
// a|b for each alternative.
func TestDocumentedCommandLinesParse(t *testing.T) {
	var names []string
	for _, s := range exp.Studies {
		names = append(names, s.Name)
	}
	found := 0
	for _, doc := range []string{".github/workflows/ci.yml", "README.md", "results/README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		text := strings.Join(strings.Fields(string(data)), " ")
		for _, m := range docCommand.FindAllStringSubmatch(text, -1) {
			lines := [][]string{nil}
			for _, tok := range strings.Fields(m[1]) {
				tok = strings.TrimRight(tok, "`);,.")
				alts := strings.Split(tok, "|")
				if tok == "<name>" || tok == `"$study"` {
					alts = names
				}
				var next [][]string
				for _, l := range lines {
					for _, a := range alts {
						next = append(next, append(append([]string(nil), l...), a))
					}
				}
				lines = next
			}
			for _, args := range lines {
				found++
				fs := flag.NewFlagSet("hdcbench", flag.ContinueOnError)
				fs.SetOutput(io.Discard)
				if _, err := parseArgs(fs, args); err != nil {
					t.Errorf("%s: hdcbench %s: %v", doc, strings.Join(args, " "), err)
				}
			}
		}
	}
	if found < 100 {
		t.Errorf("found %d documented command lines, want the 130 or so the documents hold once expanded", found)
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
			Run:   func(exp.Config) (any, error) { return nil, nil },
			Check: func(any) (string, error) { return "", errors.New("shape lost") }},
		{Name: "later",
			Run: func(exp.Config) (any, error) { ranLater = true; return nil, nil }},
	}
	var out, errOut bytes.Buffer
	failed := runStudies(table, "all", exp.Config{W: &out}, "", &errOut)
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
