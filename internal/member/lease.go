package member

// This file is the PR-5 all-pairs lease detector, retained as the scaling
// baseline the SWIM detector is measured against: every node multicasts one
// heartbeat per period to every peer and runs a per-target suspicion state
// machine over the heartbeats it hears — alive while the lease is fresh,
// suspect when it expires, dead after a capped-backoff series of re-checks
// stays silent. O(N) messages per node per round, O(N^2) total state.

import (
	"fmt"

	"heterodc/internal/kernel"
	"heterodc/internal/msg"
)

// heartbeatBytes is the wire payload of one lease heartbeat (node id,
// incarnation, a little framing).
const heartbeatBytes = 32

// hbPayload is the lease heartbeat wire payload.
type hbPayload struct {
	from int
	inc  uint64
}

// leaseView is one observer's suspicion state for one target.
type leaseView struct {
	state     State
	lastInc   uint64  // highest incarnation heard from the target
	deadInc   uint64  // incarnation this observer declared dead (0: none)
	lastHeard float64 // when the lease was last renewed
	deadline  float64 // next suspicion check, or inf when Dead
	backoff   float64 // current re-check backoff while Suspect
	missed    int     // consecutive expired re-checks while Suspect
}

// Lease is the all-pairs lease membership service attached to one cluster.
// Like Service it keeps plain unlocked state: installing it forces the
// engines into a single global schedule, so all calls are serial.
type Lease struct {
	cl  *kernel.Cluster
	cfg Config

	views     [][]leaseView // views[observer][target]
	nextEmit  []float64     // next heartbeat emission per node (inf while down)
	nextCheck []float64     // earliest suspicion deadline per observer (cached)
	// dueChanged hears of every rewrite of a node's schedule
	// (kernel.DueReporter).
	dueChanged func(node int)

	stats  Stats
	deaths []DeathRecord
}

// AttachLease validates cfg (after resolving defaults), builds the lease
// service over cl and installs it as the cluster's membership authority.
func AttachLease(cl *kernel.Cluster, cfg Config) (*Lease, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cl.NumNodes()
	s := &Lease{
		cl:        cl,
		cfg:       cfg,
		views:     make([][]leaseView, n),
		nextEmit:  make([]float64, n),
		nextCheck: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		// Stagger initial phases so the fabric does not burst n*(n-1)
		// messages at one instant.
		s.nextEmit[i] = cfg.HeartbeatPeriod * float64(i) / float64(n)
		s.views[i] = make([]leaseView, n)
		for j := range s.views[i] {
			s.views[i][j] = leaseView{deadline: cfg.SuspectTimeout}
		}
		s.recomputeCheck(i)
	}
	cl.SetMembership(s)
	return s, nil
}

// Config returns the resolved configuration.
func (s *Lease) Config() Config { return s.cfg }

// Stats returns the detector counters.
func (s *Lease) Stats() Stats { return s.stats }

// Deaths returns every death declaration in declaration order.
func (s *Lease) Deaths() []DeathRecord { return s.deaths }

// View returns observer's current state for target.
func (s *Lease) View(observer, target int) State { return s.views[observer][target].state }

// StateRecords returns the detector's total state footprint: the dense
// n*(n-1) view matrix every all-pairs observer maintains.
func (s *Lease) StateRecords() int {
	n := len(s.views)
	return n * (n - 1)
}

// ReportDue installs the cluster's hook for NextDue changes
// (kernel.DueReporter), which lets the time engine re-read only the nodes
// whose membership schedule moved.
func (s *Lease) ReportDue(changed func(node int)) { s.dueChanged = changed }

// moved reports that node's schedule may have been rewritten. The four
// protocol entry points below write nextEmit and nextCheck of the node they
// are called for and of no other, so each reports that node on its way out.
func (s *Lease) moved(node int) {
	if s.dueChanged != nil {
		s.dueChanged(node)
	}
}

// recomputeCheck refreshes observer's cached earliest suspicion deadline.
func (s *Lease) recomputeCheck(observer int) {
	min := inf
	for t := range s.views[observer] {
		if t == observer {
			continue
		}
		if d := s.views[observer][t].deadline; d < min {
			min = d
		}
	}
	s.nextCheck[observer] = min
}

// NextDue returns node's next membership action time.
func (s *Lease) NextDue(node int) float64 {
	t := s.nextEmit[node]
	if c := s.nextCheck[node]; c < t {
		t = c
	}
	return t
}

// RunDue performs node's membership actions due at now: resume after an
// idle gap, emit the periodic heartbeat round, and evaluate expired
// suspicion deadlines.
func (s *Lease) RunDue(node int, now float64) {
	defer s.moved(node)
	if s.cl.NodeDown(node) {
		// Defensive: a crashed node neither leases nor observes. NodeCrashed
		// already parked its schedule.
		s.nextEmit[node] = inf
		s.nextCheck[node] = inf
		return
	}
	if now >= s.nextEmit[node]+s.cfg.SuspectTimeout {
		// The node sat unscheduled past the suspicion timeout: leases are
		// void on both sides. Restart node's cadence here and refresh its own
		// views, or the silence of the gap would read as a burst of false
		// suspicions. The threshold is the timeout, not one period: a busy
		// node services its due times up to a scheduling quantum late, and a
		// sub-timeout delay must catch up (possibly emitting several rounds
		// back to back) rather than re-phase — a reset here wipes live
		// suspicion state.
		s.resetViews(node, now)
		s.nextEmit[node] = now
	}
	if now >= s.nextEmit[node] {
		s.emit(node, now)
		s.nextEmit[node] += s.cfg.HeartbeatPeriod
	}
	if now >= s.nextCheck[node] {
		s.check(node, now)
	}
}

// emit multicasts node's lease renewal to every peer, charged through the
// interconnect as ordinary (unreliable) traffic — loss is the signal.
func (s *Lease) emit(node int, now float64) {
	inc := s.cl.Incarnation(node)
	for to := 0; to < s.cl.NumNodes(); to++ {
		if to == node {
			continue
		}
		s.cl.IC.Send(now, node, to, msg.THeartbeat, heartbeatBytes, &hbPayload{from: node, inc: inc})
		s.stats.HeartbeatsSent++
	}
}

// check evaluates observer's expired suspicion deadlines at now.
func (s *Lease) check(observer int, now float64) {
	for target := range s.views[observer] {
		if target == observer {
			continue
		}
		v := &s.views[observer][target]
		if v.deadline > now {
			continue
		}
		switch v.state {
		case Alive:
			v.state = Suspect
			v.missed = 0
			v.backoff = s.cfg.HeartbeatPeriod
			v.deadline = now + v.backoff
			s.stats.Suspicions++
			s.trace(now, "suspect", "node %d suspects node %d (silent since %.6fs)", observer, target, v.lastHeard)
		case Suspect:
			v.missed++
			if v.missed >= s.cfg.DeathMisses {
				s.declareDead(observer, target, now)
				continue
			}
			v.backoff *= 2
			if v.backoff > s.cfg.BackoffCap {
				v.backoff = s.cfg.BackoffCap
			}
			v.deadline = now + v.backoff
		}
	}
	s.recomputeCheck(observer)
}

// declareDead finalises observer's verdict on target and (first observer
// per incarnation) executes it on the cluster.
func (s *Lease) declareDead(observer, target int, now float64) {
	v := &s.views[observer][target]
	inc := s.cl.Incarnation(target)
	v.state = Dead
	v.deadInc = inc
	v.deadline = inf
	if s.cl.DeadIncarnation(target) < inc {
		s.stats.Deaths++
		s.deaths = append(s.deaths, DeathRecord{Node: target, Inc: inc, At: now, Observer: observer})
		s.trace(now, "member-dead", "node %d declares node %d (incarnation %d) dead", observer, target, inc)
		s.cl.DeclareNodeDead(target, now)
	}
}

// Deliver processes one heartbeat arriving at node `to`.
func (s *Lease) Deliver(to int, m *msg.Message) {
	defer s.moved(to)
	hb, ok := m.Payload.(*hbPayload)
	if !ok {
		return
	}
	v := &s.views[to][hb.from]
	if hb.inc < v.lastInc || (v.state == Dead && hb.inc <= v.deadInc) {
		// A lease from a superseded incarnation, or from the very
		// incarnation this observer declared dead: death is final per
		// incarnation (the rejoining node refutes with a *higher* one).
		s.stats.HeartbeatsFenced++
		return
	}
	s.stats.HeartbeatsDelivered++
	switch v.state {
	case Suspect:
		s.stats.Readmissions++
		s.trace(m.Deliver, "readmit", "node %d clears suspicion of node %d", to, hb.from)
	case Dead:
		s.stats.Readmissions++
		s.stats.FalseSuspicions++
		s.trace(m.Deliver, "readmit", "node %d readmits node %d as incarnation %d (death refuted)", to, hb.from, hb.inc)
	}
	v.state = Alive
	v.lastInc = hb.inc
	v.lastHeard = m.Deliver
	v.missed = 0
	v.backoff = 0
	v.deadline = m.Deliver + s.cfg.SuspectTimeout
	s.recomputeCheck(to)
}

// Suspected reports observer's lease view of target: expired or declared.
func (s *Lease) Suspected(observer, target int) bool {
	if observer == target {
		return false
	}
	return s.views[observer][target].state != Alive
}

// SuspectedAny reports whether any live observer currently suspects target.
func (s *Lease) SuspectedAny(target int) bool {
	for o := range s.views {
		if o == target || s.cl.NodeDown(o) {
			continue
		}
		if s.views[o][target].state != Alive {
			return true
		}
	}
	return false
}

// NodeCrashed parks a physically crashed node's schedule: it neither leases
// nor observes until recovery. Its peers are told nothing — they learn from
// the silence, after a real detection latency.
func (s *Lease) NodeCrashed(node int, now float64) {
	defer s.moved(node)
	s.nextEmit[node] = inf
	s.nextCheck[node] = inf
}

// NodeRecovered restarts a recovered node under incarnation inc: it emits
// immediately (the fastest refutation of any death declared during the
// outage) and refreshes its own views — it heard nothing while down, and
// treating the outage as peer silence would burst false suspicions.
func (s *Lease) NodeRecovered(node int, inc uint64, now float64) {
	defer s.moved(node)
	s.nextEmit[node] = now
	s.resetViews(node, now)
}

// resetViews re-arms node's own lease views as of now. Views it holds as
// Dead stay dead: only a refuting heartbeat readmits a declared incarnation.
func (s *Lease) resetViews(node int, now float64) {
	for t := range s.views[node] {
		if t == node {
			continue
		}
		v := &s.views[node][t]
		if v.state == Dead {
			continue
		}
		v.state = Alive
		v.lastHeard = now
		v.missed = 0
		v.backoff = 0
		v.deadline = now + s.cfg.SuspectTimeout
	}
	s.recomputeCheck(node)
}

func (s *Lease) trace(t float64, kind, format string, args ...interface{}) {
	if s.cl.Tracer != nil {
		s.cl.Tracer.Record(t, kind, fmt.Sprintf(format, args...))
	}
}
