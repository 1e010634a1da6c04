package member

// This file is the SWIM-style gossip detector: randomized round-robin
// direct probes, indirect probes through witnesses before suspicion, and
// membership dissemination piggybacked on the probe/ack traffic. See the
// package comment for the protocol overview and DESIGN.md §12 for the
// quorum and partition-healing semantics.

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"heterodc/internal/kernel"
	"heterodc/internal/msg"
)

// Wire sizes: a probe/ack frame (ids, incarnation, epoch, sequence) plus a
// fixed cost per piggybacked update.
const (
	swimBaseBytes = 40
	updateBytes   = 12
	// maxPiggyback caps the updates riding on one message, keeping frames
	// O(1) regardless of how much news is queued.
	maxPiggyback = 16
)

// swimKind tags the SWIM message flavours.
type swimKind int

const (
	swimPing swimKind = iota
	swimAck
	swimPingReq
)

// update is one piggybacked membership assertion about a node.
type update struct {
	state State // Alive (refutation/readmission), Suspect, or Dead
	node  int
	inc   uint64
	epoch uint64 // refutation round within inc (Alive/Suspect only)
	// A Suspect carries its confirmation round: gen is the instant the
	// round opens (the suspicion's deadline, as float64 bits), and conf the
	// nodes that held this (inc, epoch) suspicion at or after it (see
	// Service.confirm).
	conf confirms
	gen  uint64
}

// wireBytes is what u adds to a frame: a suspicion adds its round and its
// set's bitset words, 8 + 32 bytes at 256 nodes and 8 + 512 at 4096.
func (u update) wireBytes() int {
	if u.state != Suspect {
		return updateBytes
	}
	return updateBytes + 8 + 8*len(u.conf)
}

// confirms is a confirmation set, bit i for node i. A set is never written
// once built — growing one builds a new one — so gossip queues, frames in
// flight and duplicate legs share it without copying or locking.
type confirms []uint64

func (c confirms) count() int {
	k := 0
	for _, w := range c {
		k += bits.OnesCount64(w)
	}
	return k
}

// union returns a ∪ b ∪ {self} over n nodes (self < 0: none), and whether
// that outgrows a (when it does not, a itself comes back and nothing is
// allocated).
func union(a, b confirms, self, n int) (confirms, bool) {
	grows := self >= 0 && (a == nil || a[self/64]&(1<<(self%64)) == 0)
	for i := 0; i < len(b) && !grows; i++ {
		grows = a == nil && b[i] != 0 || a != nil && b[i]&^a[i] != 0
	}
	if !grows {
		return a, false
	}
	c := make(confirms, (n+63)/64)
	copy(c, a)
	for i, w := range b {
		c[i] |= w
	}
	if self >= 0 {
		c[self/64] |= 1 << (self % 64)
	}
	return c, true
}

// supersedes reports whether update a overrides b for the same subject:
// higher incarnation wins outright; within an incarnation Dead is final and
// a higher epoch wins, with Suspect overriding Alive at equal epoch.
func supersedes(a, b update) bool {
	if a.inc != b.inc {
		return a.inc > b.inc
	}
	if b.state == Dead {
		return false
	}
	if a.state == Dead {
		return true
	}
	ra, rb := a.epoch*2, b.epoch*2
	if a.state == Suspect {
		ra++
	}
	if b.state == Suspect {
		rb++
	}
	return ra > rb
}

// gossipEntry tracks an update's remaining piggyback budget at one node.
type gossipEntry struct {
	upd    update
	budget int
}

// swimPayload is the SWIM wire payload (msg.THeartbeat traffic).
type swimPayload struct {
	kind swimKind
	from int
	inc  uint64 // sender's own incarnation (alive evidence)
	epch uint64 // sender's own refutation epoch

	origin int    // the prober this exchange answers to
	target int    // the probed node
	seq    uint64 // probe sequence at the origin

	// tgtInc/tgtEpoch carry the probed node's identity through relayed
	// acks, so the origin gets first-hand evidence even via a witness.
	tgtInc, tgtEpoch uint64

	updates []update
	// tainted marks a frame counted in Service.airborne (it carries a
	// non-Alive update); cleared when the frame lands or is lost.
	tainted bool
}

// freeCap bounds each node's payload free list. A node's traffic takes
// back one payload per frame it receives and draws one per frame it sends,
// a probe and its ack in each direction per round, so a few cover the
// burst of a round whose probe escalated to witnesses.
const freeCap = 4

// Duplicate gives a duplicate leg its own copy (msg.Duplicator), since the
// original goes back on its receiver's free list once delivered. The copy
// is untainted: airborne counted the frame once, for the original.
func (p *swimPayload) Duplicate() interface{} {
	cp := *p
	cp.updates = append([]update(nil), p.updates...)
	cp.tainted = false
	return &cp
}

// GroupPeers names the nodes a frame in flight can still touch beyond its
// endpoints (msg.GroupPeers): the relay chain of an indirect probe runs
// witness -> target -> witness -> origin, so a pending ping-req binds the
// origin and target into the receiver's sharing group; by induction every
// message a grouped window sends stays inside one group.
func (p *swimPayload) GroupPeers(add func(node int)) {
	add(p.origin)
	add(p.target)
}

// view is one observer's materialized record for one target. Records exist
// only for targets with an incident history (suspicion, death, a bumped
// incarnation or epoch); everything else is implicitly alive at incarnation
// 1 — that sparsity is what keeps detector state sub-quadratic.
type view struct {
	state    State
	inc      uint64   // highest incarnation evidenced for the target
	epoch    uint64   // highest refutation epoch within inc
	deadInc  uint64   // highest incarnation this observer holds dead
	deadline float64  // suspicion expiry while Suspect (inf otherwise)
	deferred bool     // verdict reached without quorum, parked
	called   bool     // proven, and the suspect got its last direct ping
	missed   int      // deadlines this suspicion reached short of quorum
	backoff  float64  // current re-check backoff after a miss
	conf     confirms // who held this suspicion since its round opened
	gen      uint64   // the round's opening instant (float64 bits)
}

// probeState is one node's in-flight direct probe.
type probeState struct {
	target  int // -1 while idle
	seq     uint64
	sentAt  float64 // probe emission time (RTT measurement anchor)
	ackBy   float64 // escalate to indirect probes here (inf once escalated)
	roundBy float64 // unresolved at the round boundary means suspicion
}

// Service is the SWIM membership service attached to one cluster. It keeps
// plain unlocked state, indexed by the acting node: protocol actions
// (RunDue, suspicion machinery, verdicts) always run in the global
// sequential order — they are control events, and the parallel engine ends
// every window at the next one — while Deliver may run from concurrent
// sharing-group workers when the service is Quiet, touching only the
// receiving node's shard (its views, gossip queue, probe record and stats).
// That is the kernel.Membership contract; see Quiet.
type Service struct {
	cl  *kernel.Cluster
	cfg Config
	n   int

	nextProbe []float64 // next probe round per node (inf while down)
	probeSeq  []uint64
	cycle     []uint64 // rotation cycle per node
	pos       []int    // position within the cycle
	probes    []probeState

	views     []map[int]*view // views[observer][target], sparse
	selfInc   []uint64        // incarnation selfEpoch belongs to
	selfEpoch []uint64
	gossip    [][]gossipEntry
	// free[node] holds SWIM payloads node has received and may send again
	// (at most freeCap). Like every per-node field it has a single writer
	// inside a grouped window: only node's own actions touch it, drawing
	// for the frames node sends and returning the frames it receives (or
	// sent and had refused).
	free [][]*swimPayload

	nextDue []float64 // cached earliest due time per node
	// dueChanged hears of every change to nextDue (ReportDue).
	dueChanged func(node int)

	// stats is sharded by acting node (the prober, sender or receiver), so
	// counters have a single writer inside a parallel window; Stats sums
	// them. suspects counts materialized views with state != Alive across
	// all observers — the exact fast path for SuspectedAny, and constant
	// zero during grouped windows (transitions only happen in protocol
	// actions or on non-Alive gossip, both of which collapse the engine).
	stats    []Stats
	suspects int
	deaths   []DeathRecord

	// rtt[observer][target] is an exponentially-weighted moving average of
	// observer's direct-probe round-trip times to target, and flaps
	// [observer][target] counts refuted suspicions (missed-but-refuted
	// evidence). Both are observer-sharded like views — written only while
	// the observer delivers its own frames or runs its own protocol
	// actions — so they are single-writer inside grouped parallel windows
	// and exact between engine steps. They are the health layer's raw
	// signals: a gray NIC inflates RTT and flap rate long before (or
	// without ever) producing a death verdict.
	rtt   []map[int]float64
	flaps []map[int]uint64

	// airborne counts in-flight frames carrying a non-Alive update. Node
	// state can look fully healthy — every view Alive, every gossip buffer
	// pruned — while a Suspect assertion from the previous flap is still in
	// the air; delivering it inside a grouped window would materialize
	// suspicion machinery (and verdict deadlines) the window's horizon never
	// saw. Quiet is therefore false until the count drains. Tainted sends
	// only happen when the sender's gossip buffer already held a non-Alive
	// entry (non-quiet, collapsed engine), and tainted deliveries only
	// happen while airborne > 0 (also collapsed), so the counter has a
	// single writer. The count is exact: it equals the tainted payloads
	// queued in the interconnect. A frame leaves it when it lands (Deliver,
	// including the crash sweep's hand-back to a down node) or when the
	// interconnect refuses it (sendSwim); a duplicate leg carries an
	// untainted copy.
	airborne int

	// loud counts the remaining entries that break quietness: views that
	// remember a death (deadInc != 0, never forgotten) and queued non-Alive
	// gossip. With suspects (views not Alive — a parked verdict is always
	// one of those) and airborne it makes Quiet O(1). Like them it only ever
	// moves in collapsed context: a grouped window starts quiet, and Deliver
	// on a quiet service touches neither.
	loud int
}

// Attach validates cfg (after resolving defaults), builds the SWIM service
// over cl and installs it as the cluster's membership authority.
func Attach(cl *kernel.Cluster, cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cl.NumNodes()
	s := &Service{
		cl:        cl,
		cfg:       cfg,
		n:         n,
		nextProbe: make([]float64, n),
		probeSeq:  make([]uint64, n),
		cycle:     make([]uint64, n),
		pos:       make([]int, n),
		probes:    make([]probeState, n),
		views:     make([]map[int]*view, n),
		selfInc:   make([]uint64, n),
		selfEpoch: make([]uint64, n),
		gossip:    make([][]gossipEntry, n),
		free:      make([][]*swimPayload, n),
		nextDue:   make([]float64, n),
		stats:     make([]Stats, n),
		rtt:       make([]map[int]float64, n),
		flaps:     make([]map[int]uint64, n),
	}
	for i := 0; i < n; i++ {
		// Stagger initial phases so the fabric does not burst every probe at
		// one instant.
		s.nextProbe[i] = cfg.HeartbeatPeriod * float64(i) / float64(n)
		s.probes[i].target = -1
		s.views[i] = make(map[int]*view)
		s.rtt[i] = make(map[int]float64)
		s.flaps[i] = make(map[int]uint64)
		s.selfInc[i] = cl.Incarnation(i)
		s.nextDue[i] = s.nextProbe[i]
	}
	cl.SetMembership(s)
	return s, nil
}

// ReportDue installs the cluster's hook for nextDue changes, which lets the
// time engine re-read only the nodes whose membership schedule moved.
func (s *Service) ReportDue(changed func(node int)) { s.dueChanged = changed }

// setDue is the one writer of nextDue after construction.
func (s *Service) setDue(node int, t float64) {
	if s.nextDue[node] == t {
		return
	}
	s.nextDue[node] = t
	if s.dueChanged != nil {
		s.dueChanged(node)
	}
}

// Config returns the resolved configuration.
func (s *Service) Config() Config { return s.cfg }

// Stats returns the detector counters, summed over the per-node shards.
// Exact between engine steps (each shard has a single writer in a window).
func (s *Service) Stats() Stats {
	var t Stats
	for i := range s.stats {
		st := &s.stats[i]
		t.HeartbeatsSent += st.HeartbeatsSent
		t.HeartbeatsDelivered += st.HeartbeatsDelivered
		t.HeartbeatsFenced += st.HeartbeatsFenced
		t.Suspicions += st.Suspicions
		t.Readmissions += st.Readmissions
		t.FalseSuspicions += st.FalseSuspicions
		t.Deaths += st.Deaths
		t.Probes += st.Probes
		t.ProbeTimeouts += st.ProbeTimeouts
		t.IndirectProbes += st.IndirectProbes
		t.GossipUpdates += st.GossipUpdates
		t.Refutations += st.Refutations
		t.Rejoins += st.Rejoins
		t.DeferredVerdicts += st.DeferredVerdicts
		t.VerdictRechecks += st.VerdictRechecks
	}
	return t
}

// Quiet reports whether the detector holds no global-order machinery
// (kernel.Membership): every materialized view Alive with no death
// history or parked verdict, nothing but Alive assertions queued for
// gossip, and no non-Alive assertion still in the air (airborne). While
// quiet, a grouped parallel window provably preserves
// quietness — suspicion can only arise from a protocol action (a control
// event, which ends the window) or from non-Alive gossip (queued gossip
// would already have broken quietness; in-flight gossip is the airborne
// count) — so Deliver inside the window stays confined to the receiving
// node's shard and the engine may keep sharing groups concurrent with the
// detector attached. An in-flight probe does not break quietness: its ack
// is shard-local and its expiry deadlines are protocol actions, which end
// the window.
func (s *Service) Quiet() bool { return s.suspects == 0 && s.airborne == 0 && s.loud == 0 }

// dropGossip empties node's dissemination queue.
func (s *Service) dropGossip(node int) {
	for _, e := range s.gossip[node] {
		if e.upd.state != Alive {
			s.loud--
		}
	}
	s.gossip[node] = nil
}

// holdDead records that v's observer holds incarnation inc of the target
// dead.
func (s *Service) holdDead(v *view, inc uint64) {
	if v.deadInc == 0 && inc != 0 {
		s.loud++
	}
	v.deadInc = inc
}

// Deaths returns every death declaration in declaration order.
func (s *Service) Deaths() []DeathRecord { return s.deaths }

// Quorum returns the resolved verdict quorum.
func (s *Service) Quorum() int {
	if s.cfg.Quorum > 0 {
		return s.cfg.Quorum
	}
	if s.n == 2 {
		// Majority of 2 is 2, and a lone survivor could never declare its
		// only peer: two-node racks keep the PR-5 single-observer semantics
		// (real deployments break the tie with an external witness).
		return 1
	}
	return s.n/2 + 1
}

// viewOf returns observer's record for target, or the implicit default
// (alive, incarnation 1).
func (s *Service) viewOf(observer, target int) view {
	if v := s.views[observer][target]; v != nil {
		return *v
	}
	return view{state: Alive, inc: 1, deadline: inf}
}

// mview materializes observer's record for target.
func (s *Service) mview(observer, target int) *view {
	if v := s.views[observer][target]; v != nil {
		return v
	}
	v := &view{state: Alive, inc: 1, deadline: inf}
	s.views[observer][target] = v
	return v
}

// maybePrune drops a record that carries no information beyond the implicit
// default, keeping healthy-fleet state near zero.
func (s *Service) maybePrune(observer, target int) {
	v := s.views[observer][target]
	if v != nil && v.state == Alive && v.inc <= 1 && v.epoch == 0 && v.deadInc == 0 && !v.deferred {
		delete(s.views[observer], target)
	}
}

// viewKeys returns observer's materialized targets in ascending order, for
// deterministic iteration over the sparse map.
func (s *Service) viewKeys(observer int) []int {
	keys := make([]int, 0, len(s.views[observer]))
	for t := range s.views[observer] {
		keys = append(keys, t)
	}
	sort.Ints(keys)
	return keys
}

// AliveCount returns how many nodes observer currently views alive,
// including itself.
func (s *Service) AliveCount(observer int) int {
	c := s.n
	for _, v := range s.views[observer] {
		if v.state != Alive {
			c--
		}
	}
	return c
}

// HasQuorum reports whether observer's own view holds the verdict quorum.
func (s *Service) HasQuorum(observer int) bool { return s.AliveCount(observer) >= s.Quorum() }

// View returns observer's current state for target.
func (s *Service) View(observer, target int) State {
	if observer == target {
		return Alive
	}
	return s.viewOf(observer, target).state
}

// StateRecords returns the number of materialized detector records across
// all observers (views, queued gossip, in-flight probes) — the sparse-state
// metric the scaling experiment reports against a dense detector's n*(n-1).
func (s *Service) StateRecords() int {
	c := 0
	for o := 0; o < s.n; o++ {
		c += len(s.views[o]) + len(s.gossip[o])
		if s.probes[o].target >= 0 {
			c++
		}
	}
	return c
}

// recompute refreshes node's cached earliest due time.
func (s *Service) recompute(node int) {
	t := s.nextProbe[node]
	if p := &s.probes[node]; p.target >= 0 {
		if p.ackBy < t {
			t = p.ackBy
		}
		if p.roundBy < t {
			t = p.roundBy
		}
	}
	for _, v := range s.views[node] {
		if v.state == Suspect && !v.deferred && v.deadline < t {
			t = v.deadline
		}
	}
	s.setDue(node, t)
}

// NextDue returns node's next membership action time.
func (s *Service) NextDue(node int) float64 { return s.nextDue[node] }

// park silences a down node.
func (s *Service) park(node int) {
	s.nextProbe[node] = inf
	s.probes[node].target = -1
	s.dropGossip(node)
	s.setDue(node, inf)
}

// RunDue performs node's membership actions due at now: expire the
// in-flight probe (escalating or suspecting), evaluate suspicion deadlines,
// and open the next probe round.
func (s *Service) RunDue(node int, now float64) {
	if s.cl.NodeDown(node) {
		// Defensive: a crashed node neither probes nor observes. NodeCrashed
		// already parked its schedule.
		s.park(node)
		return
	}
	if now >= s.nextProbe[node]+s.cfg.SuspectTimeout {
		// The node was scheduled far past its round (an idle gap): deadlines
		// armed before the gap are void on both sides. Re-phase the cadence
		// and re-arm live suspicions instead of letting the gap's silence
		// read as verdicts.
		s.probes[node].target = -1
		for _, t := range s.viewKeys(node) {
			if v := s.views[node][t]; v.state == Suspect && !v.deferred {
				v.deadline = now + s.cfg.SuspectTimeout
			}
		}
		s.nextProbe[node] = now
	}
	s.expireProbe(node, now)
	s.expireSuspects(node, now)
	if now >= s.nextProbe[node] {
		s.emitProbe(node, now)
		s.nextProbe[node] += s.cfg.HeartbeatPeriod
	}
	s.recompute(node)
}

// expireProbe handles the in-flight probe's deadlines: the round boundary
// turns an unresolved probe into a suspicion; the ack deadline escalates to
// indirect probes through witnesses.
func (s *Service) expireProbe(node int, now float64) {
	p := &s.probes[node]
	if p.target < 0 {
		return
	}
	if now >= p.roundBy {
		t := p.target
		p.target = -1
		s.suspect(node, t, now, "probe round expired")
		return
	}
	if now >= p.ackBy {
		p.ackBy = inf
		s.stats[node].ProbeTimeouts++
		for _, w := range s.witnesses(node, p.target, p.seq) {
			s.stats[node].IndirectProbes++
			s.sendSwim(now, node, w, swimPayload{kind: swimPingReq, origin: node, target: p.target, seq: p.seq})
		}
	}
}

// expireSuspects reaches verdicts on observer's expired suspicions.
func (s *Service) expireSuspects(observer int, now float64) {
	due := false
	for _, v := range s.views[observer] {
		if v.state == Suspect && !v.deferred && v.deadline <= now {
			due = true
			break
		}
	}
	if !due {
		return
	}
	for _, t := range s.viewKeys(observer) {
		v := s.views[observer][t]
		if v.state != Suspect || v.deferred || v.deadline > now {
			continue
		}
		s.verdict(observer, t, now)
	}
}

// suspect moves observer's view of target from alive to suspect and
// disseminates the suspicion.
func (s *Service) suspect(observer, target int, now float64, why string) {
	v := s.mview(observer, target)
	if v.state != Alive {
		return
	}
	v.state = Suspect
	s.suspects++
	v.deadline = now + s.cfg.SuspectTimeout
	v.deferred, v.called, v.missed, v.backoff = false, false, 0, 0
	v.conf, v.gen = nil, math.Float64bits(v.deadline)
	s.stats[observer].Suspicions++
	s.gossipSuspicion(observer, target, v)
	s.trace(now, "suspect", "node %d suspects node %d (%s)", observer, target, why)
}

// confirm folds the confirmation set of round gen heard for observer's
// suspicion v of target (nil: none) into v's own and re-queues the
// suspicion for gossip when the news grew it. A set counts only the nodes
// that held the suspicion at or after its round opened (gen, the deadline
// of the suspicion's first observer): the observer joins once its round is
// open. Independent suspicions of the same target open rounds at different
// instants, and the earliest wins; a later round's members held the
// suspicion after it too, so their sets merge. A pending verdict (past its
// deadline) makes its last call as soon as its set proves quorum.
func (s *Service) confirm(observer, target int, v *view, in confirms, gen uint64, now float64) {
	earlier := gen < v.gen
	if earlier {
		v.gen = gen
	}
	self := -1
	if now >= math.Float64frombits(v.gen) {
		self = observer
	}
	c, grew := union(v.conf, in, self, s.n)
	if grew || earlier {
		v.conf = c
		s.gossipSuspicion(observer, target, v)
	}
	if grew && v.backoff > 0 && !v.deferred && !v.called && s.proven(observer, v) {
		s.lastCall(observer, target, v, now)
	}
}

// gossipSuspicion queues observer's suspicion v of target, with its round
// and set as they stand.
func (s *Service) gossipSuspicion(observer, target int, v *view) {
	s.enqueueUpdate(observer, update{state: Suspect, node: target, inc: v.inc, epoch: v.epoch, conf: v.conf, gen: v.gen})
}

// proven reports whether v's confirmations prove the verdict at observer.
func (s *Service) proven(observer int, v *view) bool {
	q := s.Quorum()
	return q > 1 && v.conf.count() >= q && s.HasQuorum(observer)
}

// verdict finalises an expired suspicion. The death may only execute with
// quorum, and the observer's own view is not trusted to prove it: suspicion
// onset for unreachable peers staggers over a probe rotation, so right
// after a cut a minority observer can still view a majority alive simply
// because it has not re-probed them yet. The proof is the suspicion's
// confirmation set, gathered by the gossip itself: a quorum of nodes that
// held the suspicion once its round opened at the deadline. Disjoint sides
// of a cut made before the deadline can never both gather a majority, so a
// split's minority can only defer; only quorum-side verdicts ever gossip
// Dead, and the minority can never poison the majority at heal.
func (s *Service) verdict(observer, target int, now float64) {
	v := s.views[observer][target]
	if !s.HasQuorum(observer) {
		s.deferVerdict(observer, target, now, "no quorum")
		return
	}
	s.confirm(observer, target, v, nil, v.gen, now)
	if v.state == Suspect && s.proven(observer, v) {
		if v.called {
			s.executeDeath(observer, target, now)
		} else {
			s.lastCall(observer, target, v, now)
		}
		return
	}
	q := s.Quorum()
	// Short of quorum is not yet proof of anything: the deadline only opens
	// the round, and a congested fabric (a bulk migration transfer) slows
	// gossip and acks just as a cut severs them, so each later re-check
	// short of quorum is a miss — DeathMisses of them on a doubling backoff
	// — before the observer concludes. A two-node rack gathers nothing.
	if q <= 1 || v.backoff > 0 {
		v.missed++
	}
	if v.missed >= s.cfg.DeathMisses {
		if q <= 1 {
			// A two-node rack has no peer whose confirmation could prove the
			// verdict, and a live suspect's ack would have readmitted it:
			// silence through every re-check is the best evidence available.
			s.executeDeath(observer, target, now)
			return
		}
		// The claimed quorum never confirmed: park the verdict like any
		// minority observer.
		s.deferVerdict(observer, target, now, "confirmations short of quorum")
		return
	}
	if v.backoff == 0 {
		v.backoff = s.cfg.HeartbeatPeriod
	} else {
		v.backoff = min(2*v.backoff, s.cfg.BackoffCap)
	}
	v.deadline = now + v.backoff
	s.stats[observer].VerdictRechecks++
	s.trace(now, "re-check", "node %d re-checks suspect node %d (%d of %d confirm, %d/%d misses)",
		observer, target, v.conf.count(), q, v.missed, s.cfg.DeathMisses)
	if q <= 1 {
		s.sendSwim(now, observer, target, swimPayload{kind: swimPing, origin: observer, target: target})
	}
}

// lastCall pings the suspect of a proven verdict before it executes: a
// refutation can lose the race against a gathering set, and an ack within
// ProbeTimeout readmits the suspect.
func (s *Service) lastCall(observer, target int, v *view, now float64) {
	v.called = true
	v.deadline = now + s.cfg.ProbeTimeout
	s.sendSwim(now, observer, target, swimPayload{kind: swimPing, origin: observer, target: target})
}

// deferVerdict parks a verdict that could not prove quorum.
func (s *Service) deferVerdict(observer, target int, now float64, why string) {
	v := s.views[observer][target]
	if !v.deferred {
		s.stats[observer].DeferredVerdicts++
		s.trace(now, "defer-death", "node %d defers death of node %d (%s: %d alive of %d, need %d)",
			observer, target, why, s.AliveCount(observer), s.n, s.Quorum())
	}
	v.deferred = true
	v.deadline = inf
}

// executeDeath lands a quorum-proven verdict on the cluster.
func (s *Service) executeDeath(observer, target int, now float64) {
	v := s.views[observer][target]
	if v == nil || v.state != Suspect {
		return
	}
	v.state = Dead
	s.holdDead(v, v.inc)
	v.deadline = inf
	v.deferred = false
	v.conf = nil
	s.enqueueUpdate(observer, update{state: Dead, node: target, inc: v.inc})
	if s.cl.Incarnation(target) == v.inc && s.cl.DeadIncarnation(target) < v.inc {
		s.stats[observer].Deaths++
		s.deaths = append(s.deaths, DeathRecord{Node: target, Inc: v.inc, At: now, Observer: observer})
		s.trace(now, "member-dead", "node %d declares node %d (incarnation %d) dead", observer, target, v.inc)
		s.cl.DeclareNodeDead(target, now)
	}
}

// reevaluateDeferred re-arms parked verdicts once observer regains quorum.
// A deferred verdict was formed on a view assembled without quorum — after
// a partition, much of it is stale — so the target gets a fresh suspicion
// window with quorum rather than immediate execution (executing directly
// would let a healing minority kill live majority nodes it simply had not
// re-heard from yet).
// The fresh window must outlast a full probe rotation: refutation of a
// live re-armed suspect may need direct contact (its epoch never bumped if
// the suspicion gossip never crossed the cut), and the rotation only
// reaches each peer once per cycle. It also re-gossips the suspicion, so
// the target can refute by epoch before its probe turn comes up; the round
// and its set stand, so a death that stays unrefuted needs no new one.
func (s *Service) reevaluateDeferred(observer int, now float64) {
	if !s.HasQuorum(observer) {
		return
	}
	cycle := float64(s.n-1) * s.cfg.HeartbeatPeriod
	for _, t := range s.viewKeys(observer) {
		v := s.views[observer][t]
		if v.state == Suspect && v.deferred {
			v.deferred, v.called, v.missed, v.backoff = false, false, 0, 0
			v.deadline = now + s.cfg.SuspectTimeout + cycle
			s.gossipSuspicion(observer, t, v)
		}
	}
}

// emitProbe opens node's probe round: pick the next rotation target and
// ping it directly.
func (s *Service) emitProbe(node int, now float64) {
	if p := &s.probes[node]; p.target >= 0 {
		// The previous round's probe is still unresolved at the round
		// boundary (the node was scheduled late): it failed.
		t := p.target
		p.target = -1
		s.suspect(node, t, now, "probe unresolved at round end")
	}
	target := s.nextTarget(node)
	if target < 0 {
		return
	}
	s.probeSeq[node]++
	s.probes[node] = probeState{
		target:  target,
		seq:     s.probeSeq[node],
		sentAt:  now,
		ackBy:   now + s.cfg.ProbeTimeout,
		roundBy: now + s.cfg.HeartbeatPeriod,
	}
	s.stats[node].Probes++
	s.sendSwim(now, node, target, swimPayload{kind: swimPing, origin: node, target: target, seq: s.probeSeq[node]})
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// cycleParams derives the affine permutation pos -> (a*pos+b) mod m for one
// rotation cycle, from the seed and (node, cycle). An affine bijection with
// gcd(a, m) = 1 visits every peer exactly once per cycle in a
// pseudo-random, per-cycle-reshuffled order while keeping O(1) rotation
// state per node — the SWIM round-robin randomization without storing a
// permutation.
func (s *Service) cycleParams(node int, cycle uint64, m int) (a, b int) {
	if m <= 1 {
		return 1, 0
	}
	r := mix64(uint64(s.cfg.Seed)*0x9e3779b97f4a7c15 + uint64(node)*0xbf58476d1ce4e5b9 + cycle*0x94d049bb133111eb)
	a = 1 + int(r%uint64(m-1))
	for gcd(a, m) != 1 {
		a++
		if a >= m {
			a = 1
		}
	}
	b = int((r >> 32) % uint64(m))
	return a, b
}

// nextTarget advances node's rotation to the next peer it does not hold
// dead, or -1 when none remains.
func (s *Service) nextTarget(node int) int {
	m := s.n - 1
	if m <= 0 {
		return -1
	}
	// Two full cycles cover every peer regardless of the starting phase.
	for tries := 0; tries < 2*m; tries++ {
		a, b := s.cycleParams(node, s.cycle[node], m)
		idx := (a*s.pos[node] + b) % m
		s.pos[node]++
		if s.pos[node] >= m {
			s.pos[node] = 0
			s.cycle[node]++
		}
		cand := idx
		if cand >= node {
			cand++
		}
		if s.viewOf(node, cand).state != Dead {
			return cand
		}
	}
	return -1
}

// witnesses picks up to IndirectProbes peers (excluding node and target,
// skipping peers node holds dead) to relay a ping-req, scanning from a
// seed-and-sequence derived start so the load spreads deterministically.
func (s *Service) witnesses(node, target int, seq uint64) []int {
	k := s.cfg.IndirectProbes
	if k <= 0 {
		return nil
	}
	var out []int
	start := int(mix64(uint64(s.cfg.Seed)*0x9e3779b97f4a7c15+uint64(node)<<32+seq) % uint64(s.n))
	for j := 0; j < s.n && len(out) < k; j++ {
		c := (start + j) % s.n
		if c == node || c == target || s.viewOf(node, c).state == Dead {
			continue
		}
		out = append(out, c)
	}
	return out
}

// selfEpochOf returns node's current refutation epoch, resetting it when
// the kernel bumped the incarnation underneath (crash recovery, rejoin).
func (s *Service) selfEpochOf(node int) uint64 {
	if inc := s.cl.Incarnation(node); inc != s.selfInc[node] {
		s.selfInc[node] = inc
		s.selfEpoch[node] = 0
	}
	return s.selfEpoch[node]
}

// gossipBudget is the per-update piggyback budget:
// GossipRetransmit*ceil(log2(n+1)) transmissions reach every node with high
// probability in an epidemic dissemination.
func (s *Service) gossipBudget() int {
	b := 0
	for v := s.n; v > 0; v >>= 1 {
		b++
	}
	return s.cfg.GossipRetransmit * b
}

// enqueueUpdate queues an update for dissemination at node, superseding any
// queued update about the same subject; a suspicion replaces its own entry
// when its confirmation set grew.
func (s *Service) enqueueUpdate(node int, upd update) {
	g := s.gossip[node]
	for i := range g {
		if g[i].upd.node == upd.node {
			switch {
			case supersedes(upd, g[i].upd):
				if was, is := g[i].upd.state != Alive, upd.state != Alive; was != is {
					if is {
						s.loud++
					} else {
						s.loud--
					}
				}
				g[i] = gossipEntry{upd: upd, budget: s.gossipBudget()}
			case upd.state == Suspect && !supersedes(g[i].upd, upd):
				// The same suspicion with a grown set or an earlier round:
				// the queued entry carries it on its remaining budget.
				g[i].upd = upd
			}
			return
		}
	}
	if upd.state != Alive {
		s.loud++
	}
	s.gossip[node] = append(g, gossipEntry{upd: upd, budget: s.gossipBudget()})
}

// takePiggyback appends up to maxPiggyback queued updates for one outgoing
// message to out — highest remaining budget first, subject order on ties —
// and charges their budgets.
func (s *Service) takePiggyback(node int, out []update) []update {
	g := s.gossip[node]
	if len(g) == 0 {
		return out
	}
	// Insertion-sort the queue's best entries into a fixed buffer. Subjects
	// are unique in a queue, so the order is total.
	var top [maxPiggyback]int
	k := 0
	for i := range g {
		j := k
		if k < maxPiggyback {
			k++
		} else if ahead(g[i], g[top[k-1]]) {
			j = k - 1
		} else {
			continue
		}
		for ; j > 0 && ahead(g[i], g[top[j-1]]); j-- {
			top[j] = top[j-1]
		}
		top[j] = i
	}
	for _, i := range top[:k] {
		out = append(out, g[i].upd)
		g[i].budget--
	}
	kept := g[:0]
	for _, e := range g {
		if e.budget > 0 {
			kept = append(kept, e)
		} else if e.upd.state != Alive {
			s.loud--
		}
	}
	s.gossip[node] = kept
	return out
}

// ahead orders gossip entries for the piggyback: higher remaining budget
// first, lower subject on ties.
func ahead(a, b gossipEntry) bool {
	if a.budget != b.budget {
		return a.budget > b.budget
	}
	return a.upd.node < b.upd.node
}

// sendSwim stamps the sender's identity, attaches any forced extra updates
// and piggybacked gossip, and hands the frame to the interconnect as
// ordinary unreliable traffic — loss is the signal. The payload comes from
// the sender's free list and goes back to a free list when the frame lands
// or is lost.
func (s *Service) sendSwim(now float64, from, to int, pl swimPayload, extra ...update) {
	p := s.payload(from)
	updates := append(p.updates[:0], extra...)
	*p = pl
	p.from = from
	p.inc = s.cl.Incarnation(from)
	p.epch = s.selfEpochOf(from)
	p.updates = s.takePiggyback(from, updates)
	size := int64(swimBaseBytes)
	for _, u := range p.updates {
		size += int64(u.wireBytes())
		if u.state != Alive && !p.tainted {
			p.tainted = true
			s.airborne++
		}
	}
	s.stats[from].HeartbeatsSent++
	s.stats[from].GossipUpdates += uint64(len(p.updates))
	if _, queued := s.cl.IC.SendQueued(now, from, to, msg.THeartbeat, size, p); !queued {
		s.recycle(from, p)
	}
}

// payload draws a payload from node's free list, or a new one.
func (s *Service) payload(node int) *swimPayload {
	if f := s.free[node]; len(f) > 0 {
		p := f[len(f)-1]
		s.free[node] = f[:len(f)-1]
		return p
	}
	return new(swimPayload)
}

// recycle ends the flight of a frame that landed or was lost — taking it
// out of the airborne count — and returns its payload to node's free list,
// if there is room.
func (s *Service) recycle(node int, p *swimPayload) {
	if p.tainted {
		p.tainted = false
		s.airborne--
	}
	if len(s.free[node]) < freeCap {
		s.free[node] = append(s.free[node], p)
	}
}

// Deliver processes one SWIM frame arriving at node `to`, then ends its
// flight: airborne non-Alive gossip lands here (whatever it caused happened
// in collapsed context — airborne > 0 kept the engine collapsed up to and
// through this delivery). On a down node, which the crash sweep hands the
// frames it drains, only the flight ends.
func (s *Service) Deliver(to int, m *msg.Message) {
	pl, ok := m.Payload.(*swimPayload)
	if !ok {
		return
	}
	if !s.cl.NodeDown(to) {
		s.deliver(to, pl, m.Deliver)
	}
	s.recycle(to, pl)
}

// deliver acts on a SWIM frame at a live node.
func (s *Service) deliver(to int, pl *swimPayload, now float64) {
	if !s.applyAlive(to, pl.from, pl.inc, pl.epch, now, true) {
		// The sender's incarnation is fenced here: this observer holds it (or
		// a successor) dead.
		s.stats[to].HeartbeatsFenced++
		if pl.kind == swimPing {
			// Answer a fenced probe with the verdict: a partitioned-but-alive
			// node whose death executed on the other side learns of it from
			// this reply at first contact and rejoins under a bumped
			// incarnation, instead of zombie-probing forever.
			v := s.viewOf(to, pl.from)
			s.sendSwim(now, to, pl.from,
				swimPayload{kind: swimAck, origin: pl.origin, target: to, seq: pl.seq,
					tgtInc: s.cl.Incarnation(to), tgtEpoch: s.selfEpochOf(to)},
				update{state: Dead, node: pl.from, inc: v.deadInc})
		}
		return
	}
	s.stats[to].HeartbeatsDelivered++
	for _, u := range pl.updates {
		s.applyUpdate(to, u, now)
	}
	switch pl.kind {
	case swimPing:
		s.sendSwim(now, to, pl.from,
			swimPayload{kind: swimAck, origin: pl.origin, target: to, seq: pl.seq,
				tgtInc: s.cl.Incarnation(to), tgtEpoch: s.selfEpochOf(to)})
	case swimPingReq:
		if pl.target != to {
			s.sendSwim(now, to, pl.target,
				swimPayload{kind: swimPing, origin: pl.origin, target: pl.target, seq: pl.seq})
		}
	case swimAck:
		if pl.target != pl.from && pl.target != to {
			// A relayed ack: first-hand evidence about the probed node.
			s.applyAlive(to, pl.target, pl.tgtInc, pl.tgtEpoch, now, true)
		}
		if pl.origin == to {
			if p := &s.probes[to]; p.target == pl.target && p.seq == pl.seq {
				p.target = -1
				s.observeRTT(to, pl.target, now-p.sentAt)
			}
		} else {
			// We are the witness: forward the ack to the prober.
			s.sendSwim(now, to, pl.origin,
				swimPayload{kind: swimAck, origin: pl.origin, target: pl.target, seq: pl.seq,
					tgtInc: pl.tgtInc, tgtEpoch: pl.tgtEpoch})
		}
	}
	s.recompute(to)
}

// applyAlive folds alive evidence about target at (inc, epoch) into
// observer's view. direct evidence (a message from the target itself, or a
// seq-matched relayed ack) refutes a suspicion regardless of epoch; gossip
// needs a strictly higher (inc, epoch). It returns false when the evidence
// is stale — fenced by a higher incarnation or a declared death.
func (s *Service) applyAlive(observer, target int, inc, epoch uint64, now float64, direct bool) bool {
	if observer == target {
		return true
	}
	if inc == 1 && epoch == 0 && s.views[observer][target] == nil {
		// The implicit default record already says exactly this: nothing to
		// materialize (and prune again).
		return true
	}
	v0 := s.viewOf(observer, target)
	if inc < v0.inc || inc <= v0.deadInc {
		return false
	}
	v := s.mview(observer, target)
	if inc == v.inc && v.state == Suspect && !direct && epoch <= v.epoch {
		// Gossiped aliveness at an epoch the suspicion already covers does
		// not refute it; only the target's own bumped epoch (or direct
		// contact) does.
		return true
	}
	was := v.state
	if inc > v.inc {
		v.inc = inc
		v.epoch = epoch
	} else if epoch > v.epoch {
		v.epoch = epoch
	}
	v.state = Alive
	v.deadline = inf
	v.deferred = false
	v.conf = nil
	switch was {
	case Suspect:
		s.stats[observer].Readmissions++
		s.flaps[observer][target]++
		s.trace(now, "readmit", "node %d clears suspicion of node %d", observer, target)
	case Dead:
		s.stats[observer].Readmissions++
		s.stats[observer].FalseSuspicions++
		s.flaps[observer][target]++
		s.trace(now, "readmit", "node %d readmits node %d as incarnation %d (death refuted)", observer, target, inc)
	}
	if was != Alive {
		s.suspects--
		s.enqueueUpdate(observer, update{state: Alive, node: target, inc: v.inc, epoch: v.epoch})
		s.reevaluateDeferred(observer, now)
	}
	s.maybePrune(observer, target)
	return true
}

// applyUpdate folds one piggybacked assertion into observer's view and
// re-gossips anything that was news.
func (s *Service) applyUpdate(observer int, u update, now float64) {
	if u.node == observer {
		s.applySelfUpdate(observer, u, now)
		return
	}
	switch u.state {
	case Alive:
		s.applyAlive(observer, u.node, u.inc, u.epoch, now, false)
	case Suspect:
		v0 := s.viewOf(observer, u.node)
		if v0.state == Dead || u.inc < v0.inc || u.inc <= v0.deadInc {
			return
		}
		if u.inc == v0.inc && u.epoch < v0.epoch {
			return // already refuted at a higher epoch
		}
		v := s.mview(observer, u.node)
		opens := math.Float64frombits(u.gen)
		if v.state == Suspect && u.inc == v.inc && u.epoch == v.epoch {
			if u.gen < v.gen && now < math.Float64frombits(v.gen) && !v.deferred {
				// The round opens earlier than this view's own deadline.
				v.deadline = max(now, opens)
			}
			s.confirm(observer, u.node, v, u.conf, u.gen, now)
			return
		}
		if v.state == Alive {
			v.state, v.deferred = Suspect, false
			s.suspects++
			s.stats[observer].Suspicions++
			s.trace(now, "suspect", "node %d suspects node %d (gossip)", observer, u.node)
		}
		// A new suspicion, or newer than the one held: its round replaces.
		v.inc, v.epoch, v.conf, v.gen = u.inc, u.epoch, nil, u.gen
		if !v.deferred {
			v.deadline = max(now, opens)
			v.missed, v.backoff, v.called = 0, 0, false
		}
		s.gossipSuspicion(observer, u.node, v)
		s.confirm(observer, u.node, v, u.conf, u.gen, now)
	case Dead:
		v0 := s.viewOf(observer, u.node)
		if v0.state == Dead {
			if u.inc > v0.deadInc {
				v := s.mview(observer, u.node)
				s.holdDead(v, u.inc)
				if u.inc > v.inc {
					v.inc = u.inc
				}
				s.enqueueUpdate(observer, u)
			}
			return
		}
		if u.inc < v0.inc {
			return // the subject already rejoined under a higher incarnation
		}
		v := s.mview(observer, u.node)
		if v.state == Alive {
			s.suspects++
		}
		v.state = Dead
		if u.inc > v.inc {
			v.inc = u.inc
		}
		s.holdDead(v, u.inc)
		v.deadline = inf
		v.deferred = false
		v.conf = nil
		s.enqueueUpdate(observer, u)
		s.trace(now, "member-dead", "node %d learns node %d (incarnation %d) dead via gossip", observer, u.node, u.inc)
	}
}

// applySelfUpdate handles assertions about the receiving node itself: a
// suspicion is refuted with a bumped epoch; a death verdict against the
// current incarnation means this node outlived its own death (a partition
// false positive) and rejoins under a bumped incarnation.
func (s *Service) applySelfUpdate(node int, u update, now float64) {
	myInc := s.cl.Incarnation(node)
	switch u.state {
	case Suspect:
		if u.inc == myInc && u.epoch >= s.selfEpochOf(node) {
			s.selfEpoch[node] = u.epoch + 1
			s.stats[node].Refutations++
			s.enqueueUpdate(node, update{state: Alive, node: node, inc: myInc, epoch: s.selfEpoch[node]})
			s.trace(now, "refute", "node %d refutes suspicion of itself (incarnation %d, epoch %d)", node, myInc, s.selfEpoch[node])
		}
	case Dead:
		if u.inc >= myInc {
			newInc := s.cl.RejoinNode(node, now)
			s.selfInc[node] = newInc
			s.selfEpoch[node] = 0
			s.stats[node].Rejoins++
			s.enqueueUpdate(node, update{state: Alive, node: node, inc: newInc})
			s.trace(now, "rejoin", "node %d learns it was declared dead, rejoins as incarnation %d", node, newInc)
		}
	}
}

// Suspected reports observer's view of target: suspected or held dead.
func (s *Service) Suspected(observer, target int) bool {
	if observer == target {
		return false
	}
	return s.viewOf(observer, target).state != Alive
}

// SuspectedAny reports whether any live quorum-holding observer currently
// suspects target. Minority observers are excluded: during a partition
// every node is suspected by the far side, and letting a minority's
// suspicions veto placement would leave the quorum side nowhere to restore.
func (s *Service) SuspectedAny(target int) bool {
	if s.suspects == 0 {
		// No observer anywhere holds a non-Alive view. The counter is
		// maintained at every view transition, all of which happen in the
		// global sequential order, so this fast path is exact — and it is
		// what keeps the per-migration liveness check O(1) on a healthy
		// fleet instead of an n-observer map scan.
		return false
	}
	for o := 0; o < s.n; o++ {
		if o == target || s.cl.NodeDown(o) || !s.HasQuorum(o) {
			continue
		}
		if s.viewOf(o, target).state != Alive {
			return true
		}
	}
	return false
}

// NodeCrashed parks a physically crashed node's schedule: it neither probes
// nor observes until recovery. Its peers are told nothing — they learn from
// the silence, after a real detection latency.
func (s *Service) NodeCrashed(node int, now float64) {
	s.park(node)
}

// NodeRecovered restarts a recovered node under incarnation inc: it probes
// immediately, announces itself (the fastest refutation of any death
// declared during the outage), and resets its own non-dead views — it heard
// nothing while down, and treating the outage as peer silence would burst
// false suspicions.
func (s *Service) NodeRecovered(node int, inc uint64, now float64) {
	s.selfInc[node] = inc
	s.selfEpoch[node] = 0
	for _, t := range s.viewKeys(node) {
		v := s.views[node][t]
		if v.state == Dead {
			continue
		}
		if v.state != Alive {
			s.suspects--
		}
		v.state = Alive
		v.deadline = inf
		v.deferred = false
		v.conf = nil
		s.maybePrune(node, t)
	}
	s.dropGossip(node)
	s.enqueueUpdate(node, update{state: Alive, node: node, inc: inc})
	s.nextProbe[node] = now
	s.probes[node].target = -1
	s.recompute(node)
}

func (s *Service) trace(t float64, kind, format string, args ...interface{}) {
	if s.cl.Tracer != nil {
		s.cl.Tracer.Record(t, kind, fmt.Sprintf(format, args...))
	}
}

// ViewEntry is one observer->target cell of a membership dump.
type ViewEntry struct {
	State    string `json:"state"`
	Inc      uint64 `json:"inc"`
	Deferred bool   `json:"deferred,omitempty"`
}

// ViewDump is a serializable snapshot of every observer's membership view,
// written by hdcrun -member-out and rendered by hdcinspect -member to make
// split-brain states inspectable from a run artifact.
type ViewDump struct {
	Nodes            int           `json:"nodes"`
	Time             float64       `json:"time"`
	Quorum           int           `json:"quorum"`
	Incarnations     []uint64      `json:"incarnations"`
	DeadIncarnations []uint64      `json:"dead_incarnations"`
	Down             []bool        `json:"down"`
	HasQuorum        []bool        `json:"has_quorum"`
	Views            [][]ViewEntry `json:"views"` // [observer][target]
}

// Dump snapshots the detector's per-node views.
func (s *Service) Dump() *ViewDump {
	d := &ViewDump{
		Nodes:            s.n,
		Time:             s.cl.Time(),
		Quorum:           s.Quorum(),
		Incarnations:     make([]uint64, s.n),
		DeadIncarnations: make([]uint64, s.n),
		Down:             make([]bool, s.n),
		HasQuorum:        make([]bool, s.n),
		Views:            make([][]ViewEntry, s.n),
	}
	for i := 0; i < s.n; i++ {
		d.Incarnations[i] = s.cl.Incarnation(i)
		d.DeadIncarnations[i] = s.cl.DeadIncarnation(i)
		d.Down[i] = s.cl.NodeDown(i)
		d.HasQuorum[i] = s.HasQuorum(i)
		d.Views[i] = make([]ViewEntry, s.n)
		for t := 0; t < s.n; t++ {
			if t == i {
				d.Views[i][t] = ViewEntry{State: Alive.String(), Inc: s.cl.Incarnation(i)}
				continue
			}
			v := s.viewOf(i, t)
			d.Views[i][t] = ViewEntry{State: v.state.String(), Inc: v.inc, Deferred: v.deferred}
		}
	}
	return d
}
