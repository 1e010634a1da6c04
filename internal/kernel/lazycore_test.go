package kernel

import (
	"testing"

	"heterodc/internal/isa"
)

// callsSrc crosses a migration point at every call of f and runs long
// enough to exercise both caches.
const callsSrc = `
long f(long x) { return x * 3 + 1; }
long main(void) {
	long s = 0;
	for (long i = 0; i < 200; i++) { s += f(i); }
	print_i64_ln(s);
	return 0;
}`

// A core is built when a thread is first attached to its slot, and gets
// every hook the kernel was given before that: the instrumentation hooks
// fig345 and the ablation install before Spawn, and the kernel's own
// checkpoint tick. A second thread on the same slot finds the same core,
// caches warm.
func TestLazyCoreGetsEveryHook(t *testing.T) {
	img := buildImage(t, "calls", callsSrc, true)
	cl := NewCluster([]isa.Arch{isa.X86}, DefaultInterconnect())
	k := cl.Kernels[0]
	var calls, points, attr int
	k.InstrumentCalls(func(uint64) { calls++ }, func(uint64) { points++ })
	k.InstrumentPointAttr(func(string) { attr++ })
	if n := builtCores(k); n != 0 {
		t.Fatalf("%d cores built before any thread ran", n)
	}
	if ia, im, da, dm := k.CacheStats(); ia|im|da|dm != 0 {
		t.Fatalf("CacheStats of unbuilt cores = %d %d %d %d, want zeros", ia, im, da, dm)
	}

	run := func() (iMiss, dMiss uint64) {
		t.Helper()
		_, im0, _, dm0 := k.CacheStats()
		built := builtCores(k)
		p, err := cl.Spawn(img, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n := builtCores(k); n != built {
			t.Fatalf("Spawn built %d cores; dispatch builds them", n-built)
		}
		cl.SetCheckpointPolicy(p, CkptPolicy{}) // armed: ticks count, never fire
		if code, err := cl.RunProcess(p); err != nil || code != 0 {
			t.Fatalf("exit %d, %v", code, err)
		}
		if p.CheckpointPoints() == 0 {
			t.Errorf("the kernel's checkpoint tick never fired on the lazily built core")
		}
		_, im1, _, dm1 := k.CacheStats()
		return im1 - im0, dm1 - dm0
	}

	iCold, dCold := run()
	if calls == 0 || points == 0 || attr == 0 {
		t.Fatalf("hooks installed before Spawn fired %d calls, %d points, %d attributions; want all non-zero",
			calls, points, attr)
	}
	if n := builtCores(k); n != 1 {
		t.Fatalf("%d cores built for one thread, want 1", n)
	}
	c := k.cores[0].core
	ia, im, da, dm := k.CacheStats()
	if ia != c.ICache.Accesses || im != c.ICache.Misses || da != c.DCache.Accesses || dm != c.DCache.Misses {
		t.Errorf("CacheStats (%d %d %d %d) is not the one built core's counters", ia, im, da, dm)
	}

	iWarm, dWarm := run()
	if k.cores[0].core != c || builtCores(k) != 1 {
		t.Fatalf("the second thread on slot 0 got a new core")
	}
	if iWarm >= iCold || dWarm >= dCold {
		t.Errorf("second run missed %d/%d (I/D) against the first's %d/%d: cache state did not carry over",
			iWarm, dWarm, iCold, dCold)
	}
}

// Cores are built by whichever goroutine dispatches onto them: under the
// parallel engine that is the pool worker running the node's sharing group.
// Four independent processes on four nodes build their cores inside grouped
// windows; each node's hooks count into its own counters.
func TestLazyCoresBuiltByParallelWorkers(t *testing.T) {
	img := buildImage(t, "calls", callsSrc, true)
	arches := []isa.Arch{isa.X86, isa.ARM64, isa.X86, isa.ARM64}
	cl := NewCluster(arches, DefaultInterconnect())
	points := make([]int, len(arches))
	for i, k := range cl.Kernels {
		k.InstrumentCalls(nil, func(uint64) { points[i]++ })
	}
	cl.UseParallelEngine(0)
	var procs []*Process
	for n := range arches {
		p, err := cl.Spawn(img, n)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	for _, p := range procs {
		if code, err := cl.RunProcess(p); err != nil || code != 0 {
			t.Fatalf("pid %d: exit %d, %v", p.Pid, code, err)
		}
	}
	for n, k := range cl.Kernels {
		if got := builtCores(k); got != 1 {
			t.Errorf("node %d built %d cores for one thread, want 1", n, got)
		}
		if points[n] == 0 {
			t.Errorf("node %d: migration-point hook never fired", n)
		}
	}
}
