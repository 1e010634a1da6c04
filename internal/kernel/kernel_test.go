// External test package so the tests can drive the kernel through the core
// facade without an import cycle.
package kernel_test

import (
	"strings"
	"testing"

	"heterodc/internal/core"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
)

func runSrc(t *testing.T, src string, node int) *core.Result {
	t.Helper()
	img, err := core.Build("t", core.Src("t.c", src))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res, err := core.Run(img, node)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestFilesystemSyscalls(t *testing.T) {
	src := `
long main(void) {
	long fd = open("out.txt", 2); // O_CREATE
	write(fd, "hello fs", 8);
	close(fd);

	long rfd = open("out.txt", 0);
	char buf[16];
	long n = read(rfd, buf, 16);
	buf[n] = 0;
	close(rfd);
	print_str(buf);
	println();
	print_i64_ln(n);
	// Missing file without O_CREATE fails.
	print_i64_ln(open("missing", 0));
	return 0;
}`
	res := runSrc(t, src, core.NodeX86)
	want := "hello fs\n8\n-1\n"
	if string(res.Output) != want {
		t.Fatalf("fs output %q, want %q", res.Output, want)
	}
}

func TestFilesystemPrepopulated(t *testing.T) {
	img, err := core.Build("t", core.Src("t.c", `
long main(void) {
	long fd = open("input.dat", 0);
	char buf[32];
	long n = read(fd, buf, 32);
	buf[n] = 0;
	print_str(buf);
	return 0;
}`))
	if err != nil {
		t.Fatal(err)
	}
	cl := core.NewTestbed()
	fs := kernel.NewFS()
	fs.AddFile("input.dat", []byte("prefilled"))
	p, err := cl.SpawnWithFS(img, core.NodeX86, fs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Wait(cl, p)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != "prefilled" {
		t.Fatalf("got %q", res.Output)
	}
}

func TestRemoteFilesystemAfterMigration(t *testing.T) {
	// The container sees the same files after moving to the other kernel
	// (the FS authority stays at the origin; remote ops are charged a round
	// trip).
	src := `
long main(void) {
	long fd = open("shared.txt", 2);
	write(fd, "before", 6);
	close(fd);
	migrate(1);
	long rfd = open("shared.txt", 0);
	char buf[16];
	long n = read(rfd, buf, 16);
	buf[n] = 0;
	print_str(buf);
	print_i64_ln(getnode());
	return 0;
}`
	res := runSrc(t, src, core.NodeX86)
	if string(res.Output) != "before1\n" {
		t.Fatalf("got %q", res.Output)
	}
}

func TestSbrkGrowsHeap(t *testing.T) {
	src := `
long main(void) {
	long a = __syscall(3, 4096);
	long b = __syscall(3, 4096);
	print_i64_ln(b - a);
	long *p = (long*)a;
	p[0] = 11;
	p[511] = 22;
	print_i64_ln(p[0] + p[511]);
	return 0;
}`
	res := runSrc(t, src, core.NodeARM)
	if string(res.Output) != "4096\n33\n" {
		t.Fatalf("got %q", res.Output)
	}
}

func TestSpawnJoinReturnsValue(t *testing.T) {
	src := `
long worker(long arg) { return arg * arg; }
long main(void) {
	long t1 = spawn(worker, 9);
	long t2 = spawn(worker, 4);
	print_i64_ln(join(t1) + join(t2));
	return 0;
}`
	res := runSrc(t, src, core.NodeX86)
	if string(res.Output) != "97\n" {
		t.Fatalf("got %q", res.Output)
	}
}

func TestJoinBogusTid(t *testing.T) {
	src := `long main(void){ print_i64_ln(join(99)); print_i64_ln(join(gettid())); return 0; }`
	res := runSrc(t, src, core.NodeX86)
	if string(res.Output) != "-1\n-1\n" {
		t.Fatalf("got %q", res.Output)
	}
}

func TestTimeslicePreemption(t *testing.T) {
	// More threads than ARM cores (8): all must make progress.
	src := `
long done[16];
long worker(long tid) {
	double acc = 0.0;
	for (long i = 0; i < 30000; i++) acc += sqrt((double)(i + tid));
	done[tid] = 1 + (long)(acc * 0.0);
	return 0;
}
long main(void) {
	long tids[12];
	for (long i = 0; i < 12; i++) tids[i] = spawn(worker, i);
	for (long i = 0; i < 12; i++) join(tids[i]);
	long total = 0;
	for (long i = 0; i < 16; i++) total += done[i];
	print_i64_ln(total);
	return 0;
}`
	res := runSrc(t, src, core.NodeARM)
	if string(res.Output) != "12\n" {
		t.Fatalf("got %q", res.Output)
	}
}

func TestExitCodePropagates(t *testing.T) {
	res := runSrc(t, `long main(void){ return 42; }`, core.NodeX86)
	if res.ExitCode != 42 {
		t.Fatalf("exit %d", res.ExitCode)
	}
}

func TestDivByZeroKillsProcess(t *testing.T) {
	img, err := core.Build("t", core.Src("t.c", `
long zero = 0;
long main(void){ return 1 / zero; }`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Run(img, core.NodeX86)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("expected division error, got %v", err)
	}
}

func TestGettimeMonotonic(t *testing.T) {
	src := `
long main(void) {
	long t1 = gettime_ns();
	double acc = 0.0;
	for (long i = 0; i < 10000; i++) acc += sqrt((double)i);
	long t2 = gettime_ns();
	print_i64_ln(t2 > t1);
	return (long)(acc * 0.0);
}`
	res := runSrc(t, src, core.NodeX86)
	if string(res.Output) != "1\n" {
		t.Fatalf("got %q", res.Output)
	}
}

func TestXrandDeterministic(t *testing.T) {
	src := `long main(void){ print_i64_ln(xrand() ^ xrand() ^ xrand()); return 0; }`
	a := runSrc(t, src, core.NodeX86)
	b := runSrc(t, src, core.NodeX86)
	if string(a.Output) != string(b.Output) {
		t.Fatal("xrand not deterministic across runs")
	}
	c := runSrc(t, src, core.NodeARM)
	if string(a.Output) != string(c.Output) {
		t.Fatal("xrand not deterministic across ISAs")
	}
}

func TestNcoresPerMachine(t *testing.T) {
	src := `long main(void){ print_i64_ln(ncores()); return 0; }`
	if got := string(runSrc(t, src, core.NodeX86).Output); got != "6\n" {
		t.Fatalf("x86 ncores %q", got)
	}
	if got := string(runSrc(t, src, core.NodeARM).Output); got != "8\n" {
		t.Fatalf("arm ncores %q", got)
	}
}

func TestDescClusterRuns(t *testing.T) {
	img, err := core.Build("t", core.Src("t.c", `long main(void){ print_i64_ln(getnode()); return 0; }`))
	if err != nil {
		t.Fatal(err)
	}
	arm := isa.Describe(isa.ARM64)
	cl := kernel.NewClusterSpec([]*isa.Desc{arm, arm}, kernel.DefaultInterconnect())
	p, err := cl.Spawn(img, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunProcess(p); err != nil {
		t.Fatal(err)
	}
	if string(p.Output()) != "1\n" {
		t.Fatalf("got %q", p.Output())
	}
}

func TestDSMStatsExposed(t *testing.T) {
	img, err := core.Build("t", core.Src("t.c", `
long g = 1;
long main(void){
	migrate(1);
	g = g + 1;      // pulls the data page to node 1
	print_i64_ln(g);
	return 0;
}`))
	if err != nil {
		t.Fatal(err)
	}
	cl := core.NewTestbed()
	p, err := cl.Spawn(img, core.NodeX86)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunProcess(p); err != nil {
		t.Fatal(err)
	}
	if cl.Kernels[1].PagesIn == 0 {
		t.Error("no pages pulled to node 1 after migration")
	}
	if cl.Kernels[1].MigrationsIn != 1 {
		t.Errorf("migrations in = %d", cl.Kernels[1].MigrationsIn)
	}
}

func TestRunnableLoadAndBusyCores(t *testing.T) {
	img, err := core.Build("t", core.Src("t.c", `
long worker(long arg) {
	double acc = 0.0;
	for (long i = 0; i < 200000; i++) acc += sqrt((double)i);
	return (long)acc;
}
long main(void) {
	long t1 = spawn(worker, 1);
	long t2 = spawn(worker, 2);
	join(t1); join(t2);
	return 0;
}`))
	if err != nil {
		t.Fatal(err)
	}
	cl := core.NewTestbed()
	p, err := cl.Spawn(img, core.NodeX86)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for {
		if done, _ := p.Exited(); done {
			break
		}
		if l := cl.Kernels[0].RunnableLoad(); l > peak {
			peak = l
		}
		if !cl.Step() {
			t.Fatal("drained")
		}
	}
	if peak < 2 {
		t.Errorf("peak runnable load %d, want >= 2", peak)
	}
	if cl.Kernels[0].BusySeconds <= 0 {
		t.Error("no busy time accounted")
	}
}

func TestStackOverflowKillsProcess(t *testing.T) {
	img, err := core.Build("t", core.Src("t.c", `
long blow(long n) {
	long pad[64]; // 512 B per frame
	pad[0] = n;
	return blow(n + 1) + pad[0];
}
long main(void){ return blow(0); }`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Run(img, core.NodeX86)
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Fatalf("expected stack-overflow kill, got %v", err)
	}
}
