package kernel

import (
	"fmt"
	"runtime"
	"testing"

	"heterodc/internal/isa"
	"heterodc/internal/mem"
	"heterodc/internal/topo"
)

// viewsSrc crosses a migration point at every call of f, long enough for a
// migration or a checkpoint requested a few quanta in to land mid-run.
const viewsSrc = `
long g[64];
long f(long x) { g[x % 64] += x; return x * 3 + 1; }
long main(void) {
	long s = 0;
	for (long i = 0; i < 20000; i++) { s += f(i); }
	print_i64_ln(s + g[7]);
	return 0;
}`

// viewNodes lists the nodes holding a view of p's address space.
func viewNodes(p *Process) []int {
	var nodes []int
	for n, m := range p.mems {
		if m != nil {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// fleet builds an n-node fat tree of alternating x86 and ARM nodes, 16 to
// a rack.
func fleet(t *testing.T, n int) *Cluster {
	t.Helper()
	arches := make([]isa.Arch, n)
	for i := range arches {
		if i%2 == 1 {
			arches[i] = isa.ARM64
		}
	}
	cl, _, err := NewClusterTopo(arches, DefaultInterconnect(),
		topo.Spec{Kind: topo.KindFatTree, Racks: n / 16, Oversub: 4})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// A process costs the nodes it touches, not the cluster: its per-node view
// of the address space — a Memory and a vDSO page — is built on the first
// touch from a node and dropped when the process is reaped.
func TestProcessCostsTheNodesItTouches(t *testing.T) {
	img := buildImage(t, "views", viewsSrc, true)

	t.Run("spawn", func(t *testing.T) {
		// Only the directory's per-node counters grow with the cluster (56
		// bytes a node); a view on every node cost 4.67 MB at 1,024.
		const maxKB = 150
		var objects []float64
		for _, n := range []int{16, 256, 1024} {
			cl := fleet(t, n)
			spawn := func() {
				if _, err := cl.Spawn(img, 0); err != nil {
					t.Fatal(err)
				}
			}
			objects = append(objects, testing.AllocsPerRun(20, spawn))
			const spawns = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < spawns; i++ {
				spawn()
			}
			runtime.ReadMemStats(&after)
			kb := float64(after.TotalAlloc-before.TotalAlloc) / spawns / 1e3
			t.Logf("%4d nodes: %.0f objects, %.1f KB per Spawn", n, objects[len(objects)-1], kb)
			if n == 1024 && kb >= maxKB {
				t.Errorf("Spawn on %d nodes allocates %.1f KB, want under %d", n, kb, maxKB)
			}
			for _, p := range cl.procs {
				if got := viewNodes(p); len(got) != 1 || got[0] != 0 {
					t.Fatalf("%d nodes: a spawned process has views on %v, want [0]", n, got)
				}
			}
		}
		for i := range objects {
			if objects[i] != objects[0] {
				t.Errorf("Spawn makes %v objects on 16, 256 and 1,024 nodes; want the same at every size", objects)
				break
			}
		}
	})

	// Four processes, each from its origin to one other node. Under the
	// parallel engine the views are built by the pool workers that run each
	// process's group, and released by the worker of the node it exits on.
	for _, engine := range []string{"seq", "par"} {
		t.Run("migrate-"+engine, func(t *testing.T) {
			cl := fleet(t, 16)
			if engine == "par" {
				cl.UseParallelEngine(0)
			}
			origins, targets := []int{0, 4, 8, 12}, []int{5, 9, 13, 1}
			var procs []*Process
			for _, o := range origins {
				p, err := cl.Spawn(img, o)
				if err != nil {
					t.Fatal(err)
				}
				procs = append(procs, p)
			}
			cl.Run(20e-6)
			for i, p := range procs {
				if err := cl.RequestMigration(p, 0, targets[i]); err != nil {
					t.Fatal(err)
				}
			}
			landed := func() bool {
				for _, p := range procs {
					if th := p.Thread(0); th.Migrations < 1 || th.State == InFlight {
						return false
					}
				}
				return true
			}
			for steps := 0; !landed(); steps++ {
				if steps > 1e6 || !cl.Step() {
					t.Fatal("the migrations never landed")
				}
			}
			cl.Run(cl.Time() + 20e-6) // every thread runs on its target
			targetViews := make([]*mem.Memory, len(procs))
			for i, p := range procs {
				if exited, _ := p.Exited(); exited {
					t.Fatalf("pid %d exited before the views were checked", p.Pid)
				}
				want := fmt.Sprint([]int{min(origins[i], targets[i]), max(origins[i], targets[i])})
				if got := fmt.Sprint(viewNodes(p)); got != want {
					t.Errorf("pid %d after one migration %d -> %d: views on %s, want %s",
						p.Pid, origins[i], targets[i], got, want)
				}
				targetViews[i] = p.mems[targets[i]]
			}
			for i, p := range procs {
				if code, err := cl.RunProcess(p); err != nil || code != 0 {
					t.Fatalf("pid %d: exit %d, %v", p.Pid, code, err)
				}
				if got := viewNodes(p); len(got) != 0 {
					t.Errorf("pid %d exited with views on %v", p.Pid, got)
				}
				// The exiting core is the target's one built core; it holds
				// neither the view nor a translation into it.
				k := cl.Kernels[targets[i]]
				if builtCores(k) != 1 {
					t.Fatalf("node %d built %d cores, want 1", k.Node, builtCores(k))
				}
				for _, cs := range k.cores {
					if c := cs.core; c != nil && (c.Mem != nil || c.Translations() != 0) {
						t.Errorf("pid %d's exiting core on node %d keeps its memory (%v) and %d translations",
							p.Pid, k.Node, c.Mem == targetViews[i], c.Translations())
					}
				}
				if m := targetViews[i]; len(m.PageIndices()) != 0 {
					t.Errorf("pid %d: the released view on node %d still maps pages", p.Pid, targets[i])
				}
			}
		})
	}

	t.Run("restore", func(t *testing.T) {
		pair := NewCluster([]isa.Arch{isa.X86, isa.ARM64}, DefaultInterconnect())
		var snap *Snapshot
		pair.OnCheckpoint = func(ev CheckpointEvent) { snap = ev.Snap }
		p, err := pair.Spawn(img, 0)
		if err != nil {
			t.Fatal(err)
		}
		pair.Run(20e-6)
		if err := pair.RequestCheckpoint(p); err != nil {
			t.Fatal(err)
		}
		for steps := 0; snap == nil; steps++ {
			if steps > 1e6 || !pair.Step() {
				t.Fatal("the checkpoint was never taken")
			}
		}
		if code, err := pair.RunProcess(p); err != nil || code != 0 {
			t.Fatalf("original: exit %d, %v", code, err)
		}

		const node = 201 // an ARM node: the restore transforms the stack
		cl := fleet(t, 256)
		q, err := cl.RestoreProcess(img, snap, node)
		if err != nil {
			t.Fatal(err)
		}
		if got := viewNodes(q); len(got) != 1 || got[0] != node {
			t.Fatalf("restore onto node %d of 256 built views on %v, want [%d]", node, got, node)
		}
		if code, err := cl.RunProcess(q); err != nil || code != 0 {
			t.Fatalf("restored: exit %d, %v", code, err)
		}
		if string(q.Output()) != string(p.Output()) {
			t.Errorf("restored output %q, original %q", q.Output(), p.Output())
		}
		if got := viewNodes(q); len(got) != 0 {
			t.Errorf("restored process exited with views on %v", got)
		}
	})
}
