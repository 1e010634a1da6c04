package core

import (
	"strings"
	"testing"

	"heterodc/internal/isa"
	"heterodc/internal/kernel"
)

const helloSrc = `
long main(void) {
	print_str("hello, heterogeneous world\n");
	print_i64_ln(6 * 7);
	print_f64(3.14159);
	println();
	return 0;
}
`

func TestHelloNativeBothISAs(t *testing.T) {
	img, err := Build("hello", Src("hello.c", helloSrc))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	want := "hello, heterogeneous world\n42\n3.141590\n"
	for node, arch := range []isa.Arch{isa.X86, isa.ARM64} {
		res, err := Run(img, node)
		if err != nil {
			t.Fatalf("%s: run: %v", arch, err)
		}
		if res.ExitCode != 0 {
			t.Errorf("%s: exit code %d", arch, res.ExitCode)
		}
		if got := string(res.Output); got != want {
			t.Errorf("%s: output %q, want %q", arch, got, want)
		}
	}
}

const fibSrc = `
long fib(long n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}

long main(void) {
	print_i64_ln(fib(20));
	return 0;
}
`

func TestRecursionBothISAs(t *testing.T) {
	img, err := Build("fib", Src("fib.c", fibSrc))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	for node, arch := range []isa.Arch{isa.X86, isa.ARM64} {
		res, err := Run(img, node)
		if err != nil {
			t.Fatalf("%s: run: %v", arch, err)
		}
		if got := strings.TrimSpace(string(res.Output)); got != "6765" {
			t.Errorf("%s: fib(20) = %q, want 6765", arch, got)
		}
	}
}

const migrateSrc = `
long work(long n) {
	long sum = 0;
	double acc = 0.0;
	for (long i = 1; i <= n; i++) {
		sum += i * i % 1000;
		acc += sqrt((double)i);
	}
	return sum + (long)acc;
}

long main(void) {
	long before = getnode();
	long a = work(20000);
	migrate(1 - before);
	long after = getnode();
	long b = work(20000);
	print_kv("before=", before);
	print_kv("after=", after);
	print_i64_ln(a + b);
	return 0;
}
`

func TestExplicitMigration(t *testing.T) {
	img, err := Build("mig", Src("mig.c", migrateSrc))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// Run natively without crossing nodes first to get the reference value.
	cl := NewTestbed()
	p, err := cl.Spawn(img, NodeX86)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	res, err := Wait(cl, p)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	out := string(res.Output)
	if !strings.Contains(out, "before=0\n") || !strings.Contains(out, "after=1\n") {
		t.Fatalf("migration did not move nodes: output %q", out)
	}
	if res.Migrations == 0 {
		t.Fatalf("no migrations recorded")
	}

	// The computed value must match the ARM-only and x86-only runs.
	ref := func(node int) string {
		r, err := Run(img, node)
		if err != nil {
			t.Fatalf("ref run: %v", err)
		}
		lines := strings.Split(strings.TrimSpace(string(r.Output)), "\n")
		return lines[len(lines)-1]
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	got := lines[len(lines)-1]
	// Reference runs also migrate (migrate(1-before) moves them); spawn on
	// ARM so that run starts there and moves to x86: value must agree.
	wantX := ref(NodeX86)
	wantA := ref(NodeARM)
	if got != wantX || got != wantA {
		t.Errorf("migrated value %s; x86-start %s, arm-start %s", got, wantX, wantA)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build("bad", Src("bad.c", `long main(void){ return x; }`)); err == nil {
		t.Error("frontend error not propagated")
	}
	if _, err := Build("nomain", Src("n.c", `long helper(void){ return 1; }`)); err == nil {
		t.Error("missing main not reported")
	}
}

func TestSpawnBadNode(t *testing.T) {
	img, err := Build("ok", Src("ok.c", `long main(void){ return 0; }`))
	if err != nil {
		t.Fatal(err)
	}
	cl := NewTestbed()
	if _, err := cl.Spawn(img, 7); err == nil {
		t.Error("spawn on nonexistent node accepted")
	}
}

func TestResultFields(t *testing.T) {
	img, err := Build("r", Src("r.c", `long main(void){ print_str("x"); return 3; }`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(img, NodeARM)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 3 || string(res.Output) != "x" || res.Seconds <= 0 || res.Migrations != 0 {
		t.Errorf("result %+v", res)
	}
}

// Drive runs every job to its exit, requests a job's migration between
// steps once the clock passes its At, calls the hook before each step and,
// without a checkpoint manager, returns the processes as spawned.
func TestDriveRunsJobsAndRequestsMigrations(t *testing.T) {
	img, err := Build("fib", Src("fib.c", fibSrc))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(img, NodeX86)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewTestbed()
	a, err := cl.Spawn(img, NodeX86)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.Spawn(img, NodeARM)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	jobs := []Job{{P: a, Migrate: true, At: ref.Seconds / 2, To: NodeARM}, {P: b}}
	finals, err := Drive(cl, nil, jobs, func() { steps++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(finals) != 2 || finals[0] != a || finals[1] != b {
		t.Fatalf("finals %v, want the spawned processes", finals)
	}
	for i, p := range finals {
		if exited, code := p.Exited(); !exited || code != 0 || string(p.Output()) != string(ref.Output) {
			t.Errorf("job %d: exited=%v code=%d output %q, want %q", i, exited, code, p.Output(), ref.Output)
		}
	}
	if ResultOf(a, 0).Migrations == 0 || ResultOf(b, 0).Migrations != 0 {
		t.Errorf("migrations %d and %d, want the first job's only",
			ResultOf(a, 0).Migrations, ResultOf(b, 0).Migrations)
	}
	if steps == 0 {
		t.Error("the hook never ran")
	}
	// Nothing left to run: Drive returns at once.
	if _, err := Drive(cl, nil, jobs, func() { t.Error("stepped a finished run") }); err != nil {
		t.Fatal(err)
	}
}

// TestDriveMigratesAtTheSameInstantOnBothEngines: Drive requests the move
// in a timer firing at At, not at the first step boundary past it (a
// quantum under the sequential engine, a whole window under the parallel
// one), so the migration point honours it at the same instant on both.
func TestDriveMigratesAtTheSameInstantOnBothEngines(t *testing.T) {
	img, err := Build("fib", Src("fib.c", fibSrc))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(img, NodeX86)
	if err != nil {
		t.Fatal(err)
	}
	at := ref.Seconds * 0.37
	var moved [2][]kernel.MigrationEvent
	for i, par := range []bool{false, true} {
		cl := NewTestbed()
		if par {
			cl.UseParallelEngine(0)
		}
		p, err := cl.Spawn(img, NodeX86)
		if err != nil {
			t.Fatal(err)
		}
		cl.OnMigration = func(ev kernel.MigrationEvent) { moved[i] = append(moved[i], ev) }
		if _, err := Drive(cl, nil, []Job{{P: p, Migrate: true, At: at, To: NodeARM}}, nil); err != nil {
			t.Fatal(err)
		}
		if exited, code := p.Exited(); !exited || code != 0 || string(p.Output()) != string(ref.Output) {
			t.Fatalf("par=%v: exited=%v code=%d output %q", par, exited, code, p.Output())
		}
	}
	if len(moved[0]) != 1 || len(moved[1]) != 1 {
		t.Fatalf("migrations seq %d, par %d: want one each", len(moved[0]), len(moved[1]))
	}
	seq, par := moved[0][0], moved[1][0]
	if seq.Time < at {
		t.Errorf("migrated at %g, before the request time %g", seq.Time, at)
	}
	if seq.Time != par.Time || seq.ArriveTime != par.ArriveTime {
		t.Errorf("engines disagree: seq moved at %g (arrived %g), par at %g (arrived %g)",
			seq.Time, seq.ArriveTime, par.Time, par.ArriveTime)
	}
}
