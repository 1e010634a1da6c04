package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"heterodc/internal/cmdtest"
	"heterodc/internal/traffic"
)

func TestTrafficConfigValidation(t *testing.T) {
	cases := []struct {
		name     string
		arrivals string
		rateSet  bool
		rate     float64
		sloSet   bool
		slo      float64
		jobsSet  bool
		jobs     int
		single   bool
		wantErr  string // substring, "" means valid
		wantKind traffic.Kind
		wantRate float64
		wantSLO  float64
		wantJobs int
	}{
		{name: "off"},
		{name: "off with rate", rateSet: true, rate: 100, wantErr: "need -arrivals"},
		{name: "off with slo", sloSet: true, slo: 0.5, wantErr: "need -arrivals"},
		{name: "off with jobs", jobsSet: true, jobs: 8, wantErr: "need -arrivals"},
		{name: "defaults", arrivals: "poisson",
			wantKind: traffic.KindPoisson, wantRate: 250, wantSLO: 0.25, wantJobs: 16},
		{name: "cased and spaced", arrivals: " Diurnal ",
			wantKind: traffic.KindDiurnal, wantRate: 250, wantSLO: 0.25, wantJobs: 16},
		{name: "explicit", arrivals: "bursty", rateSet: true, rate: 300, sloSet: true, slo: 0.5, jobsSet: true, jobs: 20,
			wantKind: traffic.KindBursty, wantRate: 300, wantSLO: 0.5, wantJobs: 20},
		{name: "unknown process", arrivals: "pareto", wantErr: "unknown arrival process"},
		{name: "zero rate", arrivals: "poisson", rateSet: true, rate: 0, wantErr: "positive finite rate"},
		{name: "negative rate", arrivals: "poisson", rateSet: true, rate: -10, wantErr: "positive finite rate"},
		{name: "nan rate", arrivals: "poisson", rateSet: true, rate: math.NaN(), wantErr: "positive finite rate"},
		{name: "zero slo", arrivals: "poisson", sloSet: true, slo: 0, wantErr: "positive finite duration"},
		{name: "inf slo", arrivals: "poisson", sloSet: true, slo: math.Inf(1), wantErr: "positive finite duration"},
		{name: "zero jobs", arrivals: "poisson", jobsSet: true, jobs: 0, wantErr: "not positive"},
		{name: "negative jobs", arrivals: "poisson", jobsSet: true, jobs: -4, wantErr: "not positive"},
		{name: "with single workload", arrivals: "poisson", single: true, wantErr: "cannot be combined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec, slo, jobs, err := trafficConfig(c.arrivals, c.rateSet, c.rate, c.sloSet, c.slo, c.jobsSet, c.jobs, c.single)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if spec.Kind != c.wantKind || spec.Rate != c.wantRate {
				t.Errorf("spec = %+v, want kind %q rate %g", spec, c.wantKind, c.wantRate)
			}
			if c.wantKind != "" && slo.LatencyTargetSec != c.wantSLO {
				t.Errorf("slo target %g, want %g", slo.LatencyTargetSec, c.wantSLO)
			}
			if jobs != c.wantJobs {
				t.Errorf("jobs %d, want %d", jobs, c.wantJobs)
			}
		})
	}
}

func TestParseNode(t *testing.T) {
	cases := []struct {
		in   string
		want int
		err  bool
	}{
		{"x86", 0, false}, {"0", 0, false},
		{"arm", 1, false}, {"arm64", 1, false}, {"1", 1, false},
		{"riscv", 0, true}, {"", 0, true},
	}
	for _, c := range cases {
		got, err := parseNode(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("parseNode(%q) = %d, %v", c.in, got, err)
		}
	}
}

func TestDetectorConfigValidation(t *testing.T) {
	cases := []struct {
		name               string
		detector           bool
		period, timeout    float64
		quorum             int
		chaos              bool
		wantErr            string // substring, "" means valid
		wantPeriod, wantTO float64
		wantQuorum         int
	}{
		{"off", false, 0, 0, 0, false, "", 0, 0, 0},
		{"off with period", false, 1e-5, 0, 0, true, "need -detector", 0, 0, 0},
		{"off with timeout", false, 0, 1e-4, 0, true, "need -detector", 0, 0, 0},
		{"off with quorum", false, 0, 0, 2, true, "need -detector", 0, 0, 0},
		{"no faults", true, 1e-5, 0, 0, false, "needs fault injection", 0, 0, 0},
		{"zero period", true, 0, 0, 0, true, "positive -hb-period", 0, 0, 0},
		{"negative period", true, -1e-5, 0, 0, true, "positive -hb-period", 0, 0, 0},
		{"negative timeout", true, 1e-5, -1, 0, true, "non-negative", 0, 0, 0},
		{"negative quorum", true, 1e-5, 0, -1, true, "-quorum must be non-negative", 0, 0, 0},
		{"timeout below period", true, 1e-4, 5e-5, 0, true, "below the heartbeat period", 0, 0, 0},
		{"default timeout", true, 1e-5, 0, 0, true, "", 1e-5, 0, 0},
		{"explicit timeout", true, 1e-5, 8e-5, 0, true, "", 1e-5, 8e-5, 0},
		{"explicit quorum", true, 1e-5, 0, 2, true, "", 1e-5, 0, 2},
	}
	for _, c := range cases {
		cfg, err := detectorConfig(c.detector, c.period, c.timeout, c.quorum, c.chaos)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
			continue
		}
		if cfg.HeartbeatPeriod != c.wantPeriod || cfg.SuspectTimeout != c.wantTO || cfg.Quorum != c.wantQuorum {
			t.Errorf("%s: cfg = %+v, want period %g timeout %g quorum %d", c.name, cfg, c.wantPeriod, c.wantTO, c.wantQuorum)
		}
	}
}

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// Numbers outside a flag's range fail before the run starts, with exit
// status 2 and a message naming the flag; the edges of each range pass.
func TestOutOfRangeFlagsFailLoudly(t *testing.T) {
	bad := []struct{ flag, value string }{
		{"-threads", "0"},
		{"-threads", "-3"},
		{"-threads", "100000"},
		{"-migrate-at", "1"},
		{"-migrate-at", "2"},
		{"-migrate-at", "NaN"},
		{"-drop-prob", "1.5"},
		{"-drop-prob", "-0.1"},
		{"-dup-prob", "2"},
		{"-jitter", "-1"},
		{"-jitter", "+Inf"},
	}
	for _, c := range bad {
		out, errOut, code := cmdtest.Run(t, "-bench", "is", "-class", "S", "-output=false", c.flag, c.value)
		if code != 2 || !strings.Contains(errOut, c.flag+" ") || out != "" {
			t.Errorf("%s %s: exit %d, stderr %q, stdout %q; want exit 2 naming the flag before the run", c.flag, c.value, code, errOut, out)
		}
	}
	good := []struct {
		threads                              int
		migrateAt, dropProb, dupProb, jitter float64
	}{
		{1, -1, 0, 0, 0},
		{16, 0, 1, 1, 2e-6},
		{4, 0.999, 0.2, 0.02, 0},
		{1, -0.5, 0, 0, 0},
	}
	for _, c := range good {
		if err := checkRanges(c.threads, c.migrateAt, c.dropProb, c.dupProb, c.jitter); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
}

func TestProfilesAreWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	out, errOut, code := cmdtest.Run(t, "-bench", "is", "-class", "S", "-output=false", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 || !strings.Contains(out, "exit code      : 0") {
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
		out, errOut, code := cmdtest.Run(t, "-bench", "is", "-class", "S", flag, missing)
		if code == 0 || !strings.Contains(errOut, flag) || !strings.Contains(errOut, "no-such-dir") {
			t.Errorf("%s: exit %d, stderr %q: want a failure naming the flag and the path", flag, code, errOut)
		}
		if out != "" {
			t.Errorf("%s: the run started before the profile path was checked:\n%s", flag, out)
		}
	}
}

// A failed run still leaves a finished profile behind.
func TestProfileSurvivesAFailedRun(t *testing.T) {
	cpu := filepath.Join(t.TempDir(), "cpu.prof")
	_, errOut, code := cmdtest.Run(t, "-bench", "nonesuch", "-class", "S", "-cpuprofile", cpu)
	if code != 1 || !strings.Contains(errOut, "hdcrun:") {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !cmdtest.IsPprof(t, cpu) {
		t.Errorf("%s was left unfinished", cpu)
	}
}
