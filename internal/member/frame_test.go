package member

import (
	"fmt"
	"testing"

	"heterodc/internal/core"
	"heterodc/internal/fault"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/msg"
	"heterodc/internal/topo"
)

// TestAirborneIsExactUnderLoss drives the audit through a fabric that
// loses a third of all frames, with a node crashing for good on top:
// suspicion gossip rides frames the injector drops, frames addressed to the
// dead node, and frames its crash drains. After every protocol action the
// airborne count must equal the tainted frames still queued.
func TestAirborneIsExactUnderLoss(t *testing.T) {
	cl, s := swimCluster(t, 8, Config{HeartbeatPeriod: 1e-3, Seed: 5})
	cl.InjectFaults(fault.Plan{Seed: 3, DropProb: 0.3, Crashes: []fault.Crash{{Node: 6, At: 10e-3}}})
	cl.Run(60e-3)
	if cl.IC.Stats().Dropped == 0 || s.Stats().Suspicions == 0 || len(s.Deaths()) == 0 {
		t.Fatalf("the lossy run stayed calm: %+v, %d deaths", cl.IC.Stats(), len(s.Deaths()))
	}
}

// TestCrashEndsQueuedFlights crashes a node with suspicion gossip queued
// for it: the frames its queue drains end their flight, so nothing is left
// counted in the air.
func TestCrashEndsQueuedFlights(t *testing.T) {
	cl, s := swimCluster(t, 4, Config{HeartbeatPeriod: 1e-3})
	s.enqueueUpdate(0, update{state: Suspect, node: 3, inc: 1})
	for seq := uint64(1); seq <= 3; seq++ {
		s.sendSwim(0, 0, 2, swimPayload{kind: swimPing, origin: 0, target: 2, seq: seq})
	}
	if s.airborne != 3 {
		t.Fatalf("setup: %d frames airborne, want 3", s.airborne)
	}
	cl.CrashNode(2)
	if s.airborne != 0 || cl.IC.Pending(2) != 0 {
		t.Fatalf("after the crash: %d frames airborne, %d queued", s.airborne, cl.IC.Pending(2))
	}
}

// frameKey renders everything a SWIM frame carries but its airborne mark.
func frameKey(from int, p *swimPayload) string {
	return fmt.Sprintf("%d: %d %d %d/%d %d->%d #%d %d/%d %v",
		from, p.kind, p.from, p.inc, p.epch, p.origin, p.target, p.seq, p.tgtInc, p.tgtEpoch, p.updates)
}

// recorder hands every frame to the service and keeps, per receiving node,
// what the frame carried on arrival, how many frames carried non-Alive
// gossip and how many a confirmation set. Like the service's own state it
// is sharded by the receiver, so a grouped window's workers share no slice.
type recorder struct {
	*Service
	got   [][]string
	noisy []int
	sets  []int
}

func (r *recorder) Deliver(to int, m *msg.Message) {
	if p, ok := m.Payload.(*swimPayload); ok {
		r.got[to] = append(r.got[to], frameKey(m.From, p))
		for _, u := range p.updates {
			if u.state != Alive {
				r.noisy[to]++
				break
			}
		}
		for _, u := range p.updates {
			if u.conf != nil {
				r.sets[to]++
				break
			}
		}
	}
	r.Service.Deliver(to, m)
}

// TestDuplicateOutlivesItsOriginal reuses a delivered original before its
// duplicate arrives: the receiver's next frame draws the recycled payload
// and fills it with other updates, and the sender's confirmation set for
// the suspicion the frame carries grows, and the duplicate must still carry
// what the original did.
func TestDuplicateOutlivesItsOriginal(t *testing.T) {
	cl, s := swimCluster(t, 4, Config{HeartbeatPeriod: 1e-3})
	cl.InjectFaults(fault.Plan{Seed: 1, DupProb: 1})
	s.suspect(0, 3, 0, "test")
	at := s.cfg.SuspectTimeout
	s.expireSuspects(0, at) // the deadline opens the round: the set is {0}
	s.sendSwim(at, 0, 1, swimPayload{kind: swimPing, origin: 0, target: 1, seq: 1})
	orig := cl.IC.PopDue(1, inf)
	want := frameKey(orig.From, orig.Payload.(*swimPayload))
	s.Deliver(1, orig)
	s.Deliver(0, confirmFrame(2, s.views[0][3], 3, at+1e-6))
	if got := s.views[0][3].conf.count(); got != 2 {
		t.Fatalf("setup: the sender's set holds %d confirmations, want 2", got)
	}
	s.sendSwim(at, 1, 2, swimPayload{kind: swimPing, origin: 1, target: 2, seq: 9},
		update{state: Dead, node: 2, inc: 5})
	dup := cl.IC.PopDue(1, inf)
	if dup == nil {
		t.Fatal("the duplicate leg was never queued")
	}
	if got := frameKey(dup.From, dup.Payload.(*swimPayload)); got != want {
		t.Fatalf("the duplicate changed in flight:\n got %s\nwant %s", got, want)
	}
	s.Deliver(1, dup)
}

// spinSrc keeps a node busy, so the parallel engine's windows carry enough
// work per node to fan out to its workers.
const spinSrc = `
long main(void) {
	long s = 0;
	for (long i = 0; i < 400000; i++) { s += i % 7; }
	return s % 3;
}`

// TestDuplicateLegsDeliverIntactCopies duplicates every frame a SWIM fleet
// sends, through a short crash that makes the fleet loud and back, its
// suspicion gossip carrying confirmation sets. Payloads are recycled once
// delivered, so a duplicate leg must carry its own copy (sets it shares,
// since no set is written once built):
// every frame's contents must arrive twice, the airborne count — taken once,
// for the original — must drain to zero and the service go quiet again, and
// the grouped parallel engine must agree with the sequential one frame for
// frame. Busy nodes make the parallel windows fan out, and jitter keeps
// several probe exchanges in flight across each window, so frames are
// delivered, and payloads drawn and returned, on more than one worker at
// once: run it under -race.
func TestDuplicateLegsDeliverIntactCopies(t *testing.T) {
	img, err := core.Build("spin", core.Src("spin.c", spinSrc))
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	type dupRun struct {
		got     [][]string
		member  Stats
		ic      msg.Stats
		loud    bool
		tainted int
		sets    int
	}
	run := func(engine string) dupRun {
		arches := make([]isa.Arch, n)
		for i := range arches {
			arches[i] = isa.Arches[i%len(isa.Arches)]
		}
		cl, _, err := kernel.NewClusterTopo(arches, kernel.DefaultInterconnect(),
			topo.Spec{Kind: topo.KindFatTree, Racks: 4, Oversub: 4})
		if err != nil {
			t.Fatal(err)
		}
		if engine == "par" {
			cl.UseParallelEngine(0)
		}
		cl.InjectFaults(fault.Plan{Seed: 1, DupProb: 1, JitterSec: 100e-6,
			Crashes: []fault.Crash{{Node: 5, At: 3e-3, RecoverAt: 6e-3}}})
		s, err := Attach(cl, Config{HeartbeatPeriod: 1e-3, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		r := &recorder{Service: s, got: make([][]string, n), noisy: make([]int, n), sets: make([]int, n)}
		cl.SetMembership(r)
		for _, node := range []int{0, 6, 9, 15} {
			if _, err := cl.Spawn(img, node); err != nil {
				t.Fatal(err)
			}
		}
		out := dupRun{}
		for i := 1; i <= 40; i++ {
			cl.Run(float64(i) * 0.5e-3)
			out.loud = out.loud || !s.Quiet()
		}
		if s.airborne != 0 || !s.Quiet() {
			t.Fatalf("%s: not quiet at the end: airborne %d, suspects %d, loud %d", engine, s.airborne, s.suspects, s.loud)
		}
		// Every frame is sent once and queued twice: count what arrived and
		// what is still queued, per content.
		legs := map[string]int{}
		for _, keys := range r.got {
			for _, k := range keys {
				legs[k]++
			}
		}
		cl.IC.ForEachPending(func(m *msg.Message) {
			if p, ok := m.Payload.(*swimPayload); ok {
				legs[frameKey(m.From, p)]++
			}
		})
		for k, c := range legs {
			if c%2 != 0 {
				t.Fatalf("%s: %d legs carried %q", engine, c, k)
			}
		}
		for i := range r.noisy {
			out.tainted += r.noisy[i]
			out.sets += r.sets[i]
		}
		out.got, out.member, out.ic = r.got, s.Stats(), cl.IC.Stats()
		return out
	}
	seq, par := run("seq"), run("par")
	if !seq.loud || seq.tainted == 0 || seq.sets == 0 || seq.ic.Duplicated == 0 {
		t.Fatalf("the crash never made the fleet loud: loud %v, %d tainted arrivals, %d with sets, %+v",
			seq.loud, seq.tainted, seq.sets, seq.ic)
	}
	if seq.member != par.member {
		t.Errorf("membership stats diverge:\nseq %+v\npar %+v", seq.member, par.member)
	}
	if seq.ic != par.ic {
		t.Errorf("interconnect stats diverge:\nseq %+v\npar %+v", seq.ic, par.ic)
	}
	for node := range seq.got {
		if fmt.Sprint(seq.got[node]) != fmt.Sprint(par.got[node]) {
			t.Errorf("node %d received different frames: seq %d, par %d", node, len(seq.got[node]), len(par.got[node]))
		}
	}
}

// TestQuietRoundDoesNotAllocate holds a healthy fleet's steady state to
// zero garbage: once every rotation has visited every peer, a probe round —
// ping, ack, piggybacked gossip, queueing and delivery through the fabric —
// allocates nothing.
func TestQuietRoundDoesNotAllocate(t *testing.T) {
	const n = 64
	arches := make([]isa.Arch, n)
	for i := range arches {
		arches[i] = isa.Arches[i%len(isa.Arches)]
	}
	cl, _, err := kernel.NewClusterTopo(arches, kernel.DefaultInterconnect(),
		topo.Spec{Kind: topo.KindFatTree, Racks: 8, Oversub: 4})
	if err != nil {
		t.Fatal(err)
	}
	const period = 1e-3
	s, err := Attach(cl, Config{HeartbeatPeriod: period, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Two full rotations size every queue, free list and RTT table.
	now := 2 * n * period
	cl.Run(now)
	probes := s.Stats().Probes
	allocs := testing.AllocsPerRun(10, func() {
		now += period
		cl.Run(now)
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per quiet probe round, want 0", allocs)
	}
	if st := s.Stats(); !s.Quiet() || st.Suspicions != 0 || st.Probes-probes < 10*n {
		t.Fatalf("not ten quiet probe rounds: %d probes, %+v", st.Probes-probes, st)
	}
}
