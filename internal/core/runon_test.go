package core_test

import (
	"bytes"
	"testing"

	"heterodc/internal/core"
	"heterodc/internal/dbt"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/npb"
)

// TestRunOnMatchesTheHandLoop holds core.RunOn to the sequence every
// single-process run once spelled out for itself (spawn, RunProcess, read
// the cluster clock), kept verbatim below and run on a twin cluster: the
// same seconds, bit for bit, the same output and exit code, on every kind
// of cluster a study runs one process on. It also pins how late the
// reported time is: the clock at the end of the step that ran the exit,
// later than the exit instant by at most one quantum.
func TestRunOnMatchesTheHandLoop(t *testing.T) {
	clusters := []struct {
		name string
		make func() (*kernel.Cluster, error)
	}{
		{"x86", func() (*kernel.Cluster, error) { return core.NewSingle(isa.X86), nil }},
		{"arm", func() (*kernel.Cluster, error) { return core.NewSingle(isa.ARM64), nil }},
		{"testbed", func() (*kernel.Cluster, error) { return core.NewTestbed(), nil }},
		{"arm-on-x86", func() (*kernel.Cluster, error) { return dbt.NewEmulated(isa.ARM64, isa.X86) }},
	}
	for _, b := range []npb.Bench{npb.IS, npb.CG} {
		img, err := npb.Build(b, npb.ClassS, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range clusters {
			cl, err := c.make()
			if err != nil {
				t.Fatal(err)
			}
			twin, err := c.make()
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.RunOn(cl, img, 0)
			if err != nil {
				t.Fatalf("%s on %s: %v", b, c.name, err)
			}

			// The hand loop, as the studies wrote it.
			p, err := twin.Spawn(img, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := twin.RunProcess(p); err != nil {
				t.Fatal(err)
			}
			seconds := twin.Time()
			_, code := p.Exited()

			if res.Seconds != seconds {
				t.Errorf("%s on %s: RunOn reports %v s, the hand loop %v s", b, c.name, res.Seconds, seconds)
			}
			if res.ExitCode != code || !bytes.Equal(res.Output, p.Output()) {
				t.Errorf("%s on %s: RunOn exited %d with %q, the hand loop %d with %q",
					b, c.name, res.ExitCode, res.Output, code, p.Output())
			}
			if at := p.ExitTime(); !(at < res.Seconds && res.Seconds <= at+kernel.Quantum) {
				t.Errorf("%s on %s: reported %v s, not later than the exit at %v s by at most one quantum",
					b, c.name, res.Seconds, at)
			}
		}
	}
}
