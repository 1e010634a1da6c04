package kernel

import (
	"fmt"
	"testing"

	"heterodc/internal/fault"
	"heterodc/internal/isa"
	"heterodc/internal/msg"
)

// bounceSrc migrates its thread to the other node of a two-node cluster,
// over and over.
const bounceSrc = `
long main(void) {
	for (long i = 0; i < 1000000000; i++) { migrate(1 - getnode()); }
	return 0;
}`

// bouncer spawns bounceSrc on node 0 of a fresh x86 + ARM cluster built
// with icfg and returns the cluster and the bouncing thread.
func bouncer(t *testing.T, icfg msg.Config, parallel bool, plan *fault.Plan) (*Cluster, *Thread) {
	t.Helper()
	cl := NewCluster([]isa.Arch{isa.X86, isa.ARM64}, icfg)
	if parallel {
		cl.UseParallelEngine(0)
	}
	if plan != nil {
		cl.InjectFaults(*plan)
	}
	p, err := cl.Spawn(buildImage(t, "bounce", bounceSrc, true), 0)
	if err != nil {
		t.Fatal(err)
	}
	return cl, p.Thread(0)
}

// hop steps cl until th has launched one more migration.
func hop(t *testing.T, cl *Cluster, th *Thread) {
	for want := th.Migrations + 1; th.Migrations < want; {
		if !cl.Step() {
			t.Fatalf("cluster drained after %d migrations", th.Migrations)
		}
	}
}

// A migration hands the thread over in a record the thread carries, so
// once the cores, queues and frames have warmed up, bouncing a thread
// between an x86 and an ARM node allocates nothing: transformation,
// hand-off, delivery and the page faults that pull the stack after it.
func TestMigrationHandOffDoesNotAllocate(t *testing.T) {
	cl, th := bouncer(t, DefaultInterconnect(), false, nil)
	for i := 0; i < 20; i++ {
		hop(t, cl, th)
	}
	if n := testing.AllocsPerRun(100, func() { hop(t, cl, th) }); n != 0 {
		t.Fatalf("%v allocs per migration, want 0", n)
	}
	if th.Proc.exited {
		t.Fatalf("process exited: %v", th.Proc.Err())
	}
}

// Every leg of the bounce is duplicated, and the duplicate lands a
// retransmission timeout after the original — long after the thread has
// launched its next hop and rewritten its own hand-off record. Each queued
// copy must still carry the inc and undo of the hop that sent it, on both
// engines.
func TestDuplicateHandOffKeepsItsRecord(t *testing.T) {
	icfg := DefaultInterconnect()
	icfg.RetxTimeoutSec = 2e-3
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprint("parallel=", parallel), func(t *testing.T) {
			cl, th := bouncer(t, icfg, parallel, &fault.Plan{Seed: 3, DupProb: 1})
			type leg struct {
				from, to int
				seq      uint64
			}
			hops := []migratePayload{{}} // hops[k] is hop k's record, from 1
			sentBy := map[leg]int{}
			overtaken := 0
			// audit checks every queued hand-off against the hop that sent
			// it; a leg it has not seen before belongs to the latest hop. It
			// runs on an engine worker too, so it reports with Errorf.
			audit := func() {
				cl.IC.Sweep(nil, func(m *msg.Message) bool {
					if m.Type != msg.TThreadMigrate {
						return false
					}
					l := leg{m.From, m.To, m.Seq}
					k, seen := sentBy[l]
					if !seen {
						k = th.Migrations
						sentBy[l] = k
					}
					got, want := m.Payload.(*migratePayload), &hops[k]
					if got.t != th || got.inc != want.inc || got.undo != want.undo {
						t.Errorf("after hop %d: a copy of hop %d carries inc %d, undo node %d pc %#x; want inc %d, node %d pc %#x",
							th.Migrations, k, got.inc, got.undo.node, got.undo.pc, want.inc, want.undo.node, want.undo.pc)
					}
					if k < th.Migrations {
						overtaken++
					}
					return false
				})
			}
			// A parallel window may run several hops in one Step, so the
			// records are taken, and the queues audited, as each launches.
			cl.OnMigration = func(MigrationEvent) {
				hops = append(hops, th.hop)
				audit()
			}
			for len(hops) <= 40 && !t.Failed() {
				if !cl.Step() {
					t.Fatalf("cluster drained after %d migrations", th.Migrations)
				}
				audit()
			}
			if !t.Failed() && overtaken == 0 {
				t.Fatal("no duplicate was still in flight when the next hop started")
			}
			if s := cl.IC.Stats(); s.Duplicated == 0 {
				t.Fatalf("no duplicated legs: %+v", s)
			}
		})
	}
}
