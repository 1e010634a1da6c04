package member

import (
	"math"
	"strings"
	"testing"

	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/msg"
)

func testService(t *testing.T, cfg Config) (*kernel.Cluster, *audited) {
	t.Helper()
	cl := kernel.NewTestbed()
	s, err := Attach(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl, audit(t, cl, s)
}

// swimCluster builds an n-node mixed-ISA cluster with the SWIM detector.
func swimCluster(t *testing.T, n int, cfg Config) (*kernel.Cluster, *audited) {
	t.Helper()
	arches := make([]isa.Arch, n)
	for i := range arches {
		if i%2 == 1 {
			arches[i] = isa.ARM64
		} else {
			arches[i] = isa.X86
		}
	}
	cl := kernel.NewCluster(arches, kernel.DefaultInterconnect())
	s, err := Attach(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl, audit(t, cl, s)
}

// driveNode replays node's membership schedule (probe rounds, escalations and
// suspicion checks) up to horizon, without delivering anything — every peer
// is silent.
func driveNode(s *audited, node int, horizon float64) {
	for {
		due := s.NextDue(node)
		if due >= horizon || due >= inf {
			return
		}
		s.RunDue(node, due)
	}
}

// deliverAll pops every message queued at node and hands the membership ones
// to the service, returning how many were delivered.
func deliverAll(cl *kernel.Cluster, s *audited, node int) int {
	c := 0
	for {
		m := cl.IC.PopDue(node, inf)
		if m == nil {
			return c
		}
		if m.Type == msg.THeartbeat {
			s.Deliver(node, m)
			c++
		}
	}
}

// discardAll drains node's inbound queue without delivering (a partition
// swallowing the traffic): each SWIM frame's flight ends as a loss.
func discardAll(cl *kernel.Cluster, s *audited, node int) {
	for m := cl.IC.PopDue(node, inf); m != nil; m = cl.IC.PopDue(node, inf) {
		if pl, ok := m.Payload.(*swimPayload); ok {
			s.recycle(node, pl)
		}
	}
}

func TestConfigDefaultsAndValidate(t *testing.T) {
	c := Config{HeartbeatPeriod: 1e-3}.withDefaults()
	if c.SuspectTimeout != 3e-3 || c.DeathMisses != 3 || c.BackoffCap != 8e-3 {
		t.Fatalf("defaults not resolved: %+v", c)
	}
	if c.ProbeTimeout != 0.25e-3 || c.IndirectProbes != 2 || c.GossipRetransmit != 3 {
		t.Fatalf("SWIM defaults not resolved: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("defaulted config invalid: %v", err)
	}

	bad := []Config{
		{HeartbeatPeriod: 0},
		{HeartbeatPeriod: -1e-3},
		{HeartbeatPeriod: 1e-3, SuspectTimeout: 0.5e-3},
		{HeartbeatPeriod: 1e-3, DeathMisses: -1},
		{HeartbeatPeriod: 1e-3, BackoffCap: 0.1e-3},
		{HeartbeatPeriod: 1e-3, ProbeTimeout: 2e-3},
		{HeartbeatPeriod: 1e-3, ProbeTimeout: -1e-3},
		{HeartbeatPeriod: 1e-3, IndirectProbes: -1},
		{HeartbeatPeriod: 1e-3, GossipRetransmit: -2},
		{HeartbeatPeriod: 1e-3, Quorum: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, c)
		}
	}
	if _, err := Attach(kernel.NewTestbed(), Config{HeartbeatPeriod: -1}); err == nil {
		t.Error("Attach accepted a negative heartbeat period")
	}
}

func TestQuorumResolution(t *testing.T) {
	for _, tc := range []struct{ n, override, want int }{
		{2, 0, 1}, // documented two-node exception
		{3, 0, 2},
		{4, 0, 3},
		{5, 0, 3},
		{8, 0, 5},
		{5, 4, 4}, // explicit override wins
	} {
		_, s := swimCluster(t, tc.n, Config{HeartbeatPeriod: 1e-3, Quorum: tc.override})
		if got := s.Quorum(); got != tc.want {
			t.Errorf("n=%d override=%d: quorum %d, want %d", tc.n, tc.override, got, tc.want)
		}
	}
}

func TestSilenceEscalatesToDeath(t *testing.T) {
	cl, s := testService(t, Config{HeartbeatPeriod: 1e-3})
	// Node 1 never runs its schedule and nothing is delivered: pure silence.
	// Observer 0's probe of node 1 must escalate (no ack by the probe
	// timeout), fail at the round boundary (suspect), and — unrefuted through
	// the suspicion timeout — end in a death verdict.
	driveNode(s, 0, 1e-3)
	if got := s.View(0, 1); got != Alive {
		t.Fatalf("view before the probe round expired: %v, want alive", got)
	}
	driveNode(s, 0, 1.5e-3)
	if got := s.View(0, 1); got != Suspect {
		t.Fatalf("view after the failed probe round: %v, want suspect", got)
	}
	if !s.Suspected(0, 1) || !s.SuspectedAny(1) {
		t.Error("suspect state not reported by Suspected/SuspectedAny")
	}
	driveNode(s, 0, 1.0)
	if got := s.View(0, 1); got != Dead {
		t.Fatalf("view after sustained silence: %v, want dead", got)
	}
	st := s.Stats()
	if st.Suspicions != 1 || st.Deaths != 1 {
		t.Errorf("stats = %+v, want 1 suspicion and 1 death", st)
	}
	if st.Probes == 0 || st.ProbeTimeouts == 0 {
		t.Errorf("no probe traffic recorded: %+v", st)
	}
	if len(s.Deaths()) != 1 || s.Deaths()[0].Node != 1 || s.Deaths()[0].Observer != 0 {
		t.Errorf("death records = %+v", s.Deaths())
	}
	// The declaration reached the cluster: incarnation 1 of node 1 is fenced.
	if cl.DeadIncarnation(1) != 1 {
		t.Errorf("cluster deadInc = %d, want 1", cl.DeadIncarnation(1))
	}
	if !cl.NodeUnavailable(1) {
		t.Error("declared-dead node still reported available")
	}
	// A dead view leaves the rotation: no further probes target node 1.
	probes := s.Stats().Probes
	driveNode(s, 0, 1.1)
	if s.Stats().Probes != probes {
		t.Errorf("dead peer still probed: %d -> %d", probes, s.Stats().Probes)
	}
}

func TestIdleFleetStaysQuiet(t *testing.T) {
	// Satellite regression: membership must run whenever the service is
	// attached, not only while processes are live. An idle fleet (no process
	// ever spawned) keeps probing for hundreds of rounds without a single
	// suspicion — before the per-node gate, the kernel silenced every
	// emission the moment the last process exited, so a between-jobs fleet
	// fell silent in lockstep and mass-suspected itself on resume.
	cl, s := swimCluster(t, 4, Config{HeartbeatPeriod: 1e-3, Seed: 7})
	if cl.HasLiveProcs() {
		t.Fatal("setup: testbed unexpectedly has live processes")
	}
	cl.Run(0.2)
	st := s.Stats()
	if st.Suspicions != 0 || st.Deaths != 0 {
		t.Fatalf("idle fleet produced %d suspicions, %d deaths", st.Suspicions, st.Deaths)
	}
	// ~200 rounds x 4 nodes of probe traffic must have flowed.
	if st.Probes < 4*150 {
		t.Errorf("idle fleet barely probed: %d probes, want >= %d", st.Probes, 4*150)
	}
	if st.HeartbeatsSent == 0 || st.HeartbeatsDelivered == 0 {
		t.Errorf("no membership traffic: %+v", st)
	}
	if cl.IC.Stats().Messages == 0 {
		t.Error("membership traffic bypassed the interconnect")
	}
	for o := 0; o < 4; o++ {
		for tg := 0; tg < 4; tg++ {
			if s.View(o, tg) != Alive {
				t.Fatalf("view[%d][%d] = %v on a healthy fabric", o, tg, s.View(o, tg))
			}
		}
	}
	// Sparse-state claim: a healthy fleet holds no materialized view records;
	// only in-flight probes and queued gossip may exist transiently.
	for o := 0; o < 4; o++ {
		if len(s.views[o]) != 0 {
			t.Errorf("observer %d holds %d view records on a healthy fabric", o, len(s.views[o]))
		}
	}
	if rec := s.StateRecords(); rec > 2*4 {
		t.Errorf("healthy-fleet state records = %d, want <= %d", rec, 2*4)
	}
}

func TestProbeRotationCoversAllPeers(t *testing.T) {
	_, s := swimCluster(t, 6, Config{HeartbeatPeriod: 1e-3, Seed: 42})
	// Each rotation cycle must visit every peer exactly once (the affine
	// permutation is a bijection), across several reshuffled cycles.
	for cycle := 0; cycle < 4; cycle++ {
		seen := make(map[int]bool)
		for i := 0; i < 5; i++ {
			tg := s.nextTarget(0)
			if tg <= 0 || tg >= 6 {
				t.Fatalf("cycle %d: bad target %d", cycle, tg)
			}
			if seen[tg] {
				t.Fatalf("cycle %d: target %d probed twice before full coverage", cycle, tg)
			}
			seen[tg] = true
		}
		if len(seen) != 5 {
			t.Fatalf("cycle %d covered %d of 5 peers", cycle, len(seen))
		}
	}
}

func TestWitnessSelection(t *testing.T) {
	_, s := swimCluster(t, 6, Config{HeartbeatPeriod: 1e-3, Seed: 3})
	w := s.witnesses(0, 3, 17)
	if len(w) != s.cfg.IndirectProbes {
		t.Fatalf("%d witnesses, want %d", len(w), s.cfg.IndirectProbes)
	}
	for _, c := range w {
		if c == 0 || c == 3 {
			t.Errorf("witness %d is the prober or the target", c)
		}
	}
	// A peer held dead never witnesses.
	s.mview(0, 1).state = Dead
	for seq := uint64(0); seq < 20; seq++ {
		for _, c := range s.witnesses(0, 3, seq) {
			if c == 1 {
				t.Fatal("dead peer selected as witness")
			}
		}
	}
}

func TestIndirectProbeRescuesSilentDirectPath(t *testing.T) {
	cl, s := swimCluster(t, 4, Config{HeartbeatPeriod: 1e-3, Seed: 1})
	// Node 0 probes its rotation target; the direct ping is swallowed (a
	// lossy path), so the ack deadline escalates to ping-reqs through two
	// witnesses. Relaying the full chain — witness ping, target ack, witness
	// forward — must resolve the probe before the round boundary: no
	// suspicion forms.
	s.RunDue(0, 0)
	target := s.probes[0].target
	if target < 0 {
		t.Fatal("no probe in flight after the first round opened")
	}
	if m := cl.IC.PopDue(target, inf); m == nil {
		t.Fatal("direct ping never queued")
	} // swallowed
	s.RunDue(0, s.cfg.ProbeTimeout) // ack deadline: escalate
	st := s.Stats()
	if st.ProbeTimeouts != 1 || st.IndirectProbes != 2 {
		t.Fatalf("escalation stats = %+v, want 1 timeout and 2 ping-reqs", st)
	}
	// Deliver the ping-reqs at the witnesses; they ping the target.
	for w := 0; w < 4; w++ {
		if w == 0 || w == target {
			continue
		}
		deliverAll(cl, s, w)
	}
	// The target answers each witness ping with an ack.
	if deliverAll(cl, s, target) == 0 {
		t.Fatal("no witness ping reached the target")
	}
	// The witnesses forward the acks to the prober.
	for w := 0; w < 4; w++ {
		if w == 0 || w == target {
			continue
		}
		deliverAll(cl, s, w)
	}
	if deliverAll(cl, s, 0) == 0 {
		t.Fatal("no relayed ack reached the prober")
	}
	if s.probes[0].target != -1 {
		t.Fatal("relayed ack did not resolve the probe")
	}
	driveNode(s, 0, 1.1e-3) // cross the round boundary
	if got := s.Stats().Suspicions; got != 0 {
		t.Errorf("rescued probe still produced %d suspicions", got)
	}
	if s.View(0, target) != Alive {
		t.Errorf("view of rescued target = %v", s.View(0, target))
	}
}

func TestGossipRefutationByEpoch(t *testing.T) {
	_, s := swimCluster(t, 4, Config{HeartbeatPeriod: 1e-3})
	// Observer 0 suspects node 2; the suspicion gossips at epoch 0.
	s.suspect(0, 2, 0, "test")
	if s.View(0, 2) != Suspect {
		t.Fatal("setup: suspicion not recorded")
	}
	// Gossiped aliveness at the same epoch does not refute the suspicion —
	// only the subject's own bumped epoch (or direct contact) does.
	s.applyUpdate(0, update{state: Alive, node: 2, inc: 1, epoch: 0}, 0.1e-3)
	if s.View(0, 2) != Suspect {
		t.Fatal("stale-epoch gossip cleared a live suspicion")
	}
	// The subject hears of its own suspicion and refutes with epoch+1.
	s.applyUpdate(2, update{state: Suspect, node: 2, inc: 1, epoch: 0}, 0.2e-3)
	if s.Stats().Refutations != 1 || s.selfEpoch[2] != 1 {
		t.Fatalf("self-suspicion not refuted: refutations=%d epoch=%d", s.Stats().Refutations, s.selfEpoch[2])
	}
	// The refutation gossips back at the bumped epoch and clears the view.
	s.applyUpdate(0, update{state: Alive, node: 2, inc: 1, epoch: 1}, 0.3e-3)
	if s.View(0, 2) != Alive {
		t.Fatal("bumped-epoch refutation did not clear the suspicion")
	}
	if s.Stats().Readmissions != 1 {
		t.Errorf("readmissions = %d, want 1", s.Stats().Readmissions)
	}
	// The cleared record stays materialized: the epoch history is still
	// load-bearing (a replayed epoch-0 suspicion must not re-suspect).
	if v := s.views[0][2]; v == nil || v.epoch != 1 {
		t.Fatalf("refuted view lost its epoch history: %+v", v)
	}
	s.applyUpdate(0, update{state: Suspect, node: 2, inc: 1, epoch: 0}, 0.4e-3)
	if s.View(0, 2) != Suspect {
		t.Log("note: replayed epoch-0 suspicion ignored (already refuted at epoch 1)")
	}
	if s.views[0][2].state == Suspect {
		t.Error("already-refuted suspicion epoch re-suspected the node")
	}
}

func TestGossipDeathPropagatesAndIncarnationReadmits(t *testing.T) {
	_, s := swimCluster(t, 4, Config{HeartbeatPeriod: 1e-3})
	// A quorum-side death verdict arrives by gossip: the observer adopts it.
	s.applyUpdate(0, update{state: Dead, node: 3, inc: 1}, 1e-3)
	if s.View(0, 3) != Dead {
		t.Fatal("gossiped death not adopted")
	}
	// Gossip from the dead incarnation cannot resurrect it.
	s.applyUpdate(0, update{state: Alive, node: 3, inc: 1, epoch: 5}, 2e-3)
	if s.View(0, 3) != Dead {
		t.Fatal("same-incarnation aliveness refuted a death")
	}
	// The rejoined incarnation readmits the node.
	s.applyUpdate(0, update{state: Alive, node: 3, inc: 2}, 3e-3)
	if s.View(0, 3) != Alive {
		t.Fatal("higher-incarnation aliveness did not readmit")
	}
	if st := s.Stats(); st.FalseSuspicions != 1 {
		t.Errorf("false suspicions = %d, want 1 (the refuted death)", st.FalseSuspicions)
	}
	// A late duplicate of the old verdict is fenced by the dead-incarnation
	// watermark, not re-adopted.
	s.applyUpdate(0, update{state: Dead, node: 3, inc: 1}, 4e-3)
	if s.View(0, 3) != Alive {
		t.Fatal("stale duplicate verdict killed the rejoined incarnation")
	}
}

func TestMinorityDefersVerdictAndQuorumReArms(t *testing.T) {
	cl, s := swimCluster(t, 5, Config{HeartbeatPeriod: 1e-3})
	if s.Quorum() != 3 {
		t.Fatalf("quorum = %d, want 3", s.Quorum())
	}
	// Observer 0 loses contact with 1, 2 and 3: it is on the minority side
	// of a 2/3 split.
	for _, tg := range []int{1, 2, 3} {
		s.suspect(0, tg, 0, "test")
	}
	if s.HasQuorum(0) {
		t.Fatalf("observer with %d alive of 5 still claims quorum", s.AliveCount(0))
	}
	// The suspicion deadlines expire without quorum: every verdict parks.
	s.expireSuspects(0, s.cfg.SuspectTimeout)
	st := s.Stats()
	if st.DeferredVerdicts != 3 || st.Deaths != 0 {
		t.Fatalf("stats = %+v, want 3 deferred verdicts and 0 deaths", st)
	}
	for _, tg := range []int{1, 2, 3} {
		if v := s.views[0][tg]; v == nil || !v.deferred || v.state != Suspect {
			t.Fatalf("view of %d not parked: %+v", tg, v)
		}
		if cl.DeadIncarnation(tg) != 0 {
			t.Fatalf("minority verdict executed on the cluster for node %d", tg)
		}
	}
	// A minority's suspicions must not poison placement either.
	if s.SuspectedAny(1) {
		t.Error("minority observer's suspicion vetoed placement")
	}
	// Direct contact with node 1 restores quorum (3 alive including self).
	// The parked verdicts on 2 and 3 are re-armed with a fresh suspicion
	// window — NOT executed: the deferred view predates the heal and much of
	// it is stale.
	heal := 10e-3
	s.applyAlive(0, 1, 1, 0, heal, true)
	if !s.HasQuorum(0) {
		t.Fatal("quorum not restored by readmission")
	}
	s.expireSuspects(0, heal)
	if s.Stats().Deaths != 0 {
		t.Fatal("deferred verdict executed immediately on quorum regain")
	}
	// The fresh window covers a full probe rotation on top of the suspicion
	// timeout: a live re-armed suspect must get a direct-probe chance to
	// refute before the verdict can fire.
	rearmed := heal + s.cfg.SuspectTimeout + float64(4)*s.cfg.HeartbeatPeriod
	for _, tg := range []int{2, 3} {
		v := s.views[0][tg]
		if v.deferred || v.deadline != rearmed {
			t.Fatalf("verdict on %d not re-armed: %+v (want deadline %g)", tg, v, rearmed)
		}
	}
	// Still silent through the fresh window: the observer may now move to
	// execute — but its own view does not prove quorum. The deadline joins
	// the observer to its round (parked, it never had), which is not yet a
	// miss; nothing dies until a quorum confirms.
	s.expireSuspects(0, rearmed)
	if got := s.Stats().Deaths; got != 0 {
		t.Fatalf("deaths on the observer's own confirmation = %d, want 0", got)
	}
	for _, tg := range []int{2, 3} {
		if v := s.views[0][tg]; v.missed != 0 || v.backoff == 0 || v.deferred || v.conf.count() != 1 {
			t.Fatalf("verdict on %d: want a pending verdict on a set of one, got %+v", tg, v)
		}
	}
	// Nodes 1 and 4 gossip that they hold both suspicions: quorum proven.
	// Each verdict makes its last call, a direct ping to the suspect, and
	// executes once the silent suspect leaves it unanswered.
	at := rearmed + 1e-6
	for _, tg := range []int{2, 3} {
		for _, from := range []int{1, 4} {
			s.Deliver(0, confirmFrame(from, s.views[0][tg], tg, at))
		}
		if v := s.views[0][tg]; !v.called || v.deadline != at+s.cfg.ProbeTimeout {
			t.Fatalf("the proven verdict on %d made no last call: %+v", tg, v)
		}
		discardAll(cl, s, tg)
	}
	if got := s.Stats().Deaths; got != 0 {
		t.Fatalf("deaths before the last call lapsed = %d, want 0", got)
	}
	s.expireSuspects(0, at+s.cfg.ProbeTimeout)
	if got := s.Stats().Deaths; got != 2 {
		t.Fatalf("deaths after the confirmations = %d, want 2", got)
	}
	if cl.DeadIncarnation(2) != 1 || cl.DeadIncarnation(3) != 1 {
		t.Error("quorum verdicts did not execute on the cluster")
	}
}

// confirmFrame is a frame from node from that confirms v's suspicion of
// target: from holds it, so its set is {from} under v's restart stamp.
func confirmFrame(from int, v *view, target int, at float64) *msg.Message {
	conf, _ := union(nil, nil, from, 64)
	return &msg.Message{From: from, To: 0, Deliver: at,
		Payload: &swimPayload{kind: swimAck, from: from, inc: 1, target: from,
			updates: []update{{state: Suspect, node: target, inc: v.inc, epoch: v.epoch, conf: conf, gen: v.gen}}}}
}

// TestUnconfirmedVerdictDefers covers the stale-quorum race the
// confirmations exist for: right after a cut, a minority observer can still
// VIEW a majority alive (its rotation has not re-probed them yet), so the
// view-based quorum gate passes — but no peer's confirmation crosses the
// cut, and the verdict parks instead of executing.
func TestUnconfirmedVerdictDefers(t *testing.T) {
	cl, s := swimCluster(t, 5, Config{HeartbeatPeriod: 1e-3})
	// Observer 0 has discovered only ONE unreachable peer so far: its view
	// says 4 alive of 5 — quorum held — even though (unknown to it) it is
	// actually cut off from everyone.
	s.suspect(0, 1, 0, "test")
	if !s.HasQuorum(0) {
		t.Fatal("setup: view-based quorum should still pass")
	}
	// The cut swallows every frame. The deadline opens the round with the
	// observer alone in it; each re-check after it short of quorum is a
	// miss that re-arms with backoff (a congested fabric slows
	// confirmations too), and only after DeathMisses misses does the
	// verdict park like any minority verdict.
	at := s.cfg.SuspectTimeout
	s.expireSuspects(0, at)
	v := s.views[0][1]
	if v.missed != 0 || v.deferred || v.conf.count() != 1 || v.deadline <= at {
		t.Fatalf("the deadline did not open the round: %+v", v)
	}
	for miss := 1; miss <= s.cfg.DeathMisses; miss++ {
		at = v.deadline
		s.expireSuspects(0, at)
		discardAll(cl, s, 2)
		if s.Stats().Deaths != 0 || cl.DeadIncarnation(1) != 0 {
			t.Fatalf("miss %d: an unconfirmed verdict executed a death", miss)
		}
		if miss < s.cfg.DeathMisses {
			if v.deferred || v.missed != miss || v.deadline <= at {
				t.Fatalf("miss %d: want a re-check, got %+v", miss, v)
			}
		} else if !v.deferred {
			t.Fatalf("exhausted re-checks did not park the verdict: %+v", v)
		}
	}
	if got := s.Stats().VerdictRechecks; got != uint64(s.cfg.DeathMisses) {
		t.Fatalf("verdict re-checks = %d, want %d", got, s.cfg.DeathMisses)
	}
	if got := s.Stats().DeferredVerdicts; got != 1 {
		t.Fatalf("deferred verdicts = %d, want 1", got)
	}
}

// TestLapsedRecheckSurvivesLateAcks covers the congested-fabric false
// positive: a bulk transfer (a live migration) occupying the link delays a
// suspect's acks past the suspicion window, exactly as if the suspect were
// dead. On a two-node rack (quorum 1) no peer can confirm anything, so the
// deadline must buy a backoff re-check with a direct ping to the suspect,
// not a verdict — when the transfer finishes and the late ack lands, the
// suspect is readmitted with no death executed.
func TestLapsedRecheckSurvivesLateAcks(t *testing.T) {
	cl, s := swimCluster(t, 2, Config{HeartbeatPeriod: 1e-3})
	s.suspect(0, 1, 0, "test")
	s.expireSuspects(0, s.cfg.SuspectTimeout)
	if s.Stats().Deaths != 0 {
		t.Fatal("a single deadline executed a two-node death")
	}
	v := s.views[0][1]
	if v.missed != 1 || v.deferred {
		t.Fatalf("the deadline did not re-arm a re-check: %+v", v)
	}
	// The re-check pings the suspect directly, and the suspect answers.
	if deliverAll(cl, s, 1) != 1 {
		t.Fatal("the re-check sent the suspect no ping")
	}
	// The congested link delays the ack past the next re-check.
	s.expireSuspects(0, v.deadline)
	if s.Stats().Deaths != 0 || v.missed != 2 {
		t.Fatalf("second re-check: %d deaths, %+v", s.Stats().Deaths, v)
	}
	// The transfer drains and the suspect's delayed frames finally land:
	// direct alive evidence, suspicion cleared, misses forgotten.
	if deliverAll(cl, s, 0) == 0 {
		t.Fatal("the suspect's ack never queued")
	}
	if got := s.View(0, 1); got != Alive {
		t.Fatalf("late ack did not readmit the suspect: %v", got)
	}
	if st := s.Stats(); st.Deaths != 0 || st.VerdictRechecks != 2 || st.Readmissions != 1 {
		t.Fatalf("stats = %+v, want a readmission after 2 re-checks and no deaths", st)
	}
	if cl.DeadIncarnation(1) != 0 {
		t.Fatal("cluster fenced an incarnation that was never declared dead")
	}
}

// TestRefutationClearsConfirmations: a suspicion confirmed by a majority
// is refuted by the target's bumped epoch, and the refutation takes the
// confirmations with it — a fresh suspicion at the new epoch starts from
// its own holder, and no old confirmation carries over into its verdict.
func TestRefutationClearsConfirmations(t *testing.T) {
	cl, s := swimCluster(t, 5, Config{HeartbeatPeriod: 1e-3})
	s.suspect(0, 1, 0, "test")
	at := s.cfg.SuspectTimeout
	s.expireSuspects(0, at)
	for _, from := range []int{2, 3, 4} {
		s.Deliver(0, confirmFrame(from, s.views[0][1], 1, at+1e-5))
	}
	if v := s.views[0][1]; v.conf.count() != 4 || !v.called {
		t.Fatalf("setup: %d confirmations, want a proven verdict on 4", v.conf.count())
	}
	// Node 1 refutes: its epoch-1 aliveness reaches observer 0.
	s.applyUpdate(0, update{state: Alive, node: 1, inc: 1, epoch: 1}, at+2e-5)
	discardAll(cl, s, 1)
	if v := s.views[0][1]; v != nil && (v.state != Alive || v.conf != nil) {
		t.Fatalf("refutation left %+v", v)
	}
	// A new suspicion of the same incarnation at the refuted epoch holds
	// only what is confirmed anew: its round opened, the holder joined it.
	again := at + 3e-5
	s.applyUpdate(0, update{state: Suspect, node: 1, inc: 1, epoch: 1, gen: math.Float64bits(again)}, again)
	v := s.views[0][1]
	if v.state != Suspect || v.conf.count() != 1 || v.called {
		t.Fatalf("the new suspicion inherited confirmations: %+v (%d)", v, v.conf.count())
	}
	// Stale confirmations for the refuted epoch are not news for it either.
	s.applyUpdate(0, update{state: Suspect, node: 1, inc: 1, epoch: 0,
		conf: confirms{0b11110}}, again+1e-5)
	s.expireSuspects(0, v.deadline)
	if s.Stats().Deaths != 0 || v.conf.count() != 1 {
		t.Fatalf("a refuted epoch's confirmations proved a verdict: %+v", v)
	}
}

// TestCutBeforeTheDeadlineLeavesNoQuorum: the whole fleet holds a
// suspicion of node 1 when a cut leaves observer 0 with nodes 2 and 3,
// three of seven, and the observer's deadline falls after the cut but
// before any probe of its own could fail across it. A confirmation counts
// only from the round's opening at the deadline on, so the far side's
// frames from before the cut carry no confirmation, and the verdict
// defers however readily the near side answers.
func TestCutBeforeTheDeadlineLeavesNoQuorum(t *testing.T) {
	cl, s := swimCluster(t, 7, Config{HeartbeatPeriod: 1e-3})
	s.suspect(0, 1, 0, "test")
	suspicion := update{state: Suspect, node: 1, inc: 1, gen: s.views[0][1].gen}
	// Before the cut, every other node hears the suspicion, holds it and
	// gossips it back to the observer.
	for k := 2; k < 7; k++ {
		s.applyUpdate(k, suspicion, 1e-3)
		s.sendSwim(1e-3, k, 0, swimPayload{kind: swimAck, origin: k, target: k})
	}
	deliverAll(cl, s, 0)
	// The cut falls at 2 ms, and from then on only nodes 2 and 3 reach the
	// observer. The deadline at 3 ms opens the round; the near side joins
	// it and confirms at every re-check.
	v := s.views[0][1]
	for at, check := s.cfg.SuspectTimeout, 0; check <= s.cfg.DeathMisses; at, check = v.deadline, check+1 {
		s.expireSuspects(0, at)
		for _, k := range []int{2, 3} {
			s.expireSuspects(k, at)
			s.sendSwim(at, k, 0, swimPayload{kind: swimAck, origin: k, target: k})
		}
		deliverAll(cl, s, 0)
		for k := 1; k < 7; k++ {
			discardAll(cl, s, k)
		}
	}
	if s.Stats().Deaths != 0 || cl.DeadIncarnation(1) != 0 {
		t.Fatal("confirmations from before the cut executed a minority verdict")
	}
	if !v.deferred || v.conf.count() != 3 {
		t.Fatalf("the minority verdict did not park on a set of three: %+v", v)
	}
}

func TestZombieLearnsOfItsDeathAndRejoins(t *testing.T) {
	cl, s := testService(t, Config{HeartbeatPeriod: 1e-3})
	// Node 0 declares node 1 dead after sustained silence (node 1 was
	// partitioned away, not crashed: it never stopped running). The horizon
	// covers the suspicion window plus the DeathMisses re-check backoffs.
	driveNode(s, 0, 9.5e-3)
	if s.View(0, 1) != Dead || cl.DeadIncarnation(1) != 1 {
		t.Fatal("setup: node 1 not declared dead")
	}
	discardAll(cl, s, 1) // the partition swallowed node 0's probes

	// The partition heals: node 1 probes node 0. Its ping is fenced (stale
	// incarnation), and the reply carries the death verdict, so the zombie
	// learns and rejoins under a bumped incarnation at first contact.
	s.RunDue(1, 9.5e-3)
	deliverAll(cl, s, 0)
	if s.Stats().HeartbeatsFenced == 0 {
		t.Fatal("zombie ping was not fenced")
	}
	if deliverAll(cl, s, 1) == 0 {
		t.Fatal("no fence notification reached the zombie")
	}
	if got := cl.Incarnation(1); got != 2 {
		t.Fatalf("zombie incarnation = %d, want 2 after rejoin", got)
	}
	if s.Stats().Rejoins != 1 {
		t.Fatalf("rejoins = %d, want 1", s.Stats().Rejoins)
	}
	// The zombie's next probe runs under incarnation 2 and readmits it at
	// the observer that held it dead.
	driveNode(s, 1, 10.6e-3)
	deliverAll(cl, s, 0)
	if s.View(0, 1) != Alive {
		t.Fatalf("rejoined node still viewed %v at the declaring observer", s.View(0, 1))
	}
	st := s.Stats()
	if st.FalseSuspicions != 1 || st.Readmissions == 0 {
		t.Errorf("stats = %+v, want the death refuted as a false suspicion", st)
	}
	if cl.NodeUnavailable(1) {
		t.Error("rejoined node still unavailable for placement")
	}
	// Exactly one live incarnation: the retired one stays fenced.
	if cl.Incarnation(1) != 2 || cl.DeadIncarnation(1) != 1 {
		t.Errorf("incarnation ledger = (inc %d, dead %d), want (2, 1)",
			cl.Incarnation(1), cl.DeadIncarnation(1))
	}
}

func TestCrashParksAndRecoveryResumesSchedule(t *testing.T) {
	_, s := testService(t, Config{HeartbeatPeriod: 1e-3})
	driveNode(s, 1, 0.6e-3)
	s.NodeCrashed(1, 0.6e-3)
	if s.NextDue(1) < inf {
		t.Fatalf("crashed node still scheduled at %g", s.NextDue(1))
	}
	s.NodeRecovered(1, 1, 10e-3)
	if s.NextDue(1) != 10e-3 {
		t.Fatalf("recovered node next due %g, want immediate probe at 10ms", s.NextDue(1))
	}
	// Its own views were refreshed: the pre-crash silence of node 0 must not
	// read as suspicion right after recovery (no probe round has failed yet).
	driveNode(s, 1, 10e-3+0.9*s.cfg.HeartbeatPeriod)
	if s.Stats().Suspicions != 0 {
		t.Errorf("recovery burst %d false suspicions", s.Stats().Suspicions)
	}
	// The recovered node announces itself: an alive update is queued for the
	// next outgoing frames.
	found := false
	for _, e := range s.gossip[1] {
		if e.upd.node == 1 && e.upd.state == Alive {
			found = true
		}
	}
	if !found {
		t.Error("recovered node queued no self-announcement")
	}
}

func TestIdleGapResumesCadence(t *testing.T) {
	_, s := testService(t, Config{HeartbeatPeriod: 1e-3})
	driveNode(s, 0, 0.9e-3)
	// The node sat unscheduled for a long gap; the next due action lands far
	// past the cadence. The service must re-phase — clearing the stale
	// in-flight probe — instead of reading the gap's silence as a failed
	// round.
	s.RunDue(0, 5.0)
	if s.Stats().Suspicions != 0 {
		t.Errorf("idle gap produced %d suspicions", s.Stats().Suspicions)
	}
	if due := s.NextDue(0); due <= 5.0 || due > 5.0+s.cfg.HeartbeatPeriod {
		t.Errorf("next due %g after resume at 5s", due)
	}
}

func TestIdleGapReArmsLiveSuspicion(t *testing.T) {
	_, s := testService(t, Config{HeartbeatPeriod: 1e-3})
	// A suspicion armed before the gap (deadline 4ms) must not fire as a
	// verdict when the node resumes at 10s: the deadline is re-armed.
	driveNode(s, 0, 1.5e-3)
	if s.View(0, 1) != Suspect {
		t.Fatal("setup: no suspicion before the gap")
	}
	s.RunDue(0, 10.0)
	if s.Stats().Deaths != 0 {
		t.Fatal("gap-stale suspicion fired a death verdict on resume")
	}
	if s.View(0, 1) != Suspect {
		t.Errorf("re-armed suspicion lost: view = %v", s.View(0, 1))
	}
	if v := s.views[0][1]; v.deadline != 10.0+s.cfg.SuspectTimeout {
		t.Errorf("suspicion deadline %g, want re-armed at %g", v.deadline, 10.0+s.cfg.SuspectTimeout)
	}
}

func TestSupersedes(t *testing.T) {
	alive := func(inc, ep uint64) update { return update{state: Alive, node: 1, inc: inc, epoch: ep} }
	susp := func(inc, ep uint64) update { return update{state: Suspect, node: 1, inc: inc, epoch: ep} }
	dead := func(inc uint64) update { return update{state: Dead, node: 1, inc: inc} }
	cases := []struct {
		a, b update
		want bool
	}{
		{alive(2, 0), dead(1), true},    // higher incarnation beats a death
		{dead(1), alive(1, 9), true},    // within an incarnation death is final
		{alive(1, 9), dead(1), false},   //
		{susp(1, 0), alive(1, 0), true}, // suspect outranks alive at equal epoch
		{alive(1, 1), susp(1, 0), true}, // a bumped epoch refutes the suspicion
		{susp(1, 1), alive(1, 1), true},
		{alive(1, 0), alive(1, 0), false},
	}
	for i, c := range cases {
		if got := supersedes(c.a, c.b); got != c.want {
			t.Errorf("case %d: supersedes(%+v, %+v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestPiggybackBudgetRetiresUpdates(t *testing.T) {
	_, s := swimCluster(t, 4, Config{HeartbeatPeriod: 1e-3, GossipRetransmit: 1})
	s.enqueueUpdate(0, update{state: Suspect, node: 2, inc: 1})
	budget := s.gossipBudget()
	for i := 0; i < budget; i++ {
		if got := s.takePiggyback(0, nil); len(got) != 1 {
			t.Fatalf("draw %d: %d updates, want 1", i, len(got))
		}
	}
	if got := s.takePiggyback(0, nil); len(got) != 0 {
		t.Fatalf("update outlived its budget: %d updates after %d draws", len(got), budget)
	}
	// A superseding update refreshes the entry; a superseded one is ignored.
	s.enqueueUpdate(0, update{state: Suspect, node: 2, inc: 1})
	s.enqueueUpdate(0, update{state: Dead, node: 2, inc: 1})
	if g := s.gossip[0]; len(g) != 1 || g[0].upd.state != Dead {
		t.Fatalf("superseding update not adopted: %+v", g)
	}
	s.enqueueUpdate(0, update{state: Suspect, node: 2, inc: 1})
	if g := s.gossip[0]; len(g) != 1 || g[0].upd.state != Dead {
		t.Fatalf("superseded update overwrote the verdict: %+v", g)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Alive: "alive", Suspect: "suspect", Dead: "dead"} {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(st), got, want)
		}
	}
	if !strings.Contains(State(9).String(), "9") {
		t.Error("unknown state string lost the value")
	}
}
