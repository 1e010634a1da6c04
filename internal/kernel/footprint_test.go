package kernel_test

import (
	"runtime"
	"testing"

	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/member"
	"heterodc/internal/topo"
)

// An idle node costs what it runs: a 256-node fat-tree fleet with SWIM
// attached and no process has built no core and keeps no flat-pipe
// occupancy table (the fabric holds its own), only the per-link sequence
// numbers. Eager cores alone cost about 2 MB here, and 8 more bytes per
// directed link 0.5 MB.
func TestIdleFleetFootprint(t *testing.T) {
	const nodes, racks = 256, 16
	const maxLiveMB = 1.5
	arches := make([]isa.Arch, nodes)
	for i := range arches {
		if i%2 == 1 {
			arches[i] = isa.ARM64
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cl, _, err := kernel.NewClusterTopo(arches, kernel.DefaultInterconnect(),
		topo.Spec{Kind: topo.KindFatTree, Racks: racks, Oversub: 4})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := member.Attach(cl, member.Config{HeartbeatPeriod: 1e-3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 1e6
	runtime.KeepAlive(svc)

	if n := cl.BuiltCores(); n != 0 {
		t.Errorf("idle fleet built %d cores, want 0", n)
	}
	if got, want := cl.IC.LinkBytes(), 8*nodes*nodes; got != want {
		t.Errorf("link tables hold %d bytes, want %d (sequence numbers only)", got, want)
	}
	if live > maxLiveMB {
		t.Errorf("idle fleet keeps %.2f MB live after construction, want at most %.1f", live, maxLiveMB)
	}
	t.Logf("live heap after construction: %.2f MB", live)
}

// Building a 256-node fat-tree fleet allocates what the fleet keeps, not
// the flat pipe's n*n occupancy table as well: the fabric is installed
// before the interconnect grows, so the 0.5 MB table is never made (1.31 MB
// in all when it was made and dropped again, about 0.8 MB without it).
func TestFatTreeBuildSkipsTheFlatTable(t *testing.T) {
	const nodes, racks = 256, 16
	const maxMB = 0.85
	arches := make([]isa.Arch, nodes)
	for i := range arches {
		if i%2 == 1 {
			arches[i] = isa.ARM64
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cl, _, err := kernel.NewClusterTopo(arches, kernel.DefaultInterconnect(),
		topo.Spec{Kind: topo.KindFatTree, Racks: racks, Oversub: 4})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(cl)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("building the fleet allocated %.2f MB", mb)
	if mb > maxMB {
		t.Errorf("building the fleet allocated %.2f MB, want at most %.2f", mb, maxMB)
	}
}
