package member

import (
	"testing"

	"heterodc/internal/kernel"
	"heterodc/internal/msg"
)

// quietWalk is Quiet as it was before the loud counter: a walk over every
// observer's views and gossip queue. The audited service below holds
// the O(1) answer to it after every protocol action.
func quietWalk(s *Service) bool {
	if s.suspects != 0 || s.airborne != 0 {
		return false
	}
	for o := 0; o < s.n; o++ {
		for _, v := range s.obs[o].views {
			if v.state != Alive || v.deadInc != 0 || v.deferred {
				return false
			}
		}
		for _, e := range s.gossip[o] {
			if e.upd.state != Alive {
				return false
			}
		}
	}
	return true
}

// loudWalk recounts what Service.loud tracks.
func loudWalk(s *Service) int {
	c := 0
	for o := 0; o < s.n; o++ {
		for _, v := range s.obs[o].views {
			if v.deadInc != 0 {
				c++
			}
		}
		for _, e := range s.gossip[o] {
			if e.upd.state != Alive {
				c++
			}
		}
	}
	return c
}

// airborneWalk counts the tainted payloads queued in the interconnect:
// what Service.airborne tracks.
func airborneWalk(s *Service) int {
	c := 0
	s.cl.IC.ForEachPending(func(m *msg.Message) {
		if pl, ok := m.Payload.(*swimPayload); ok && pl.tainted {
			c++
		}
	})
	return c
}

// audited is the service every test in this package drives, directly or
// through its cluster: the four protocol entry points run the real service
// and then compare the quiet and airborne counters with the walks. It
// reads every node's state, so it runs on the sequential engine only.
type audited struct {
	*Service
	t *testing.T
}

var _ kernel.Membership = (*audited)(nil)

// audit wraps s and installs the wrapper as cl's membership service.
func audit(t *testing.T, cl *kernel.Cluster, s *Service) *audited {
	a := &audited{Service: s, t: t}
	cl.SetMembership(a)
	a.check("Attach", true)
	return a
}

// check compares the counters with the walks; inFlight says the airborne
// count is comparable with the queues.
func (a *audited) check(after string, inFlight bool) {
	a.t.Helper()
	s := a.Service
	if got, want := s.airborne, airborneWalk(s); inFlight && got != want {
		a.t.Fatalf("after %s: airborne counter %d, %d tainted frames queued", after, got, want)
	}
	if got, want := s.loud, loudWalk(s); got != want {
		a.t.Fatalf("after %s: loud counter %d, recount %d", after, got, want)
	}
	if got, want := s.Quiet(), quietWalk(s); got != want {
		a.t.Fatalf("after %s: Quiet() = %v, the walk says %v (suspects %d, airborne %d, loud %d)",
			after, got, want, s.suspects, s.airborne, s.loud)
	}
}

func (a *audited) RunDue(node int, now float64) {
	a.Service.RunDue(node, now)
	a.check("RunDue", true)
}

func (a *audited) Deliver(to int, m *msg.Message) {
	a.Service.Deliver(to, m)
	// A crashing node is handed its drained frames one at a time: until
	// the last one, the rest are out of the queue but still counted.
	a.check("Deliver", !a.cl.NodeDown(to))
}

func (a *audited) NodeCrashed(node int, now float64) {
	a.Service.NodeCrashed(node, now)
	a.check("NodeCrashed", true)
}

func (a *audited) NodeRecovered(node int, inc uint64, now float64) {
	a.Service.NodeRecovered(node, inc, now)
	a.check("NodeRecovered", true)
}

// TestQuietCounterThroughCrashPartitionAndRejoin drives a cluster through
// everything that makes the detector loud — a crash detected and declared,
// its recovery and readmission, and a node cut off long enough to be
// suspected and then healed — with the audit running after every action
// the cluster makes.
func TestQuietCounterThroughCrashPartitionAndRejoin(t *testing.T) {
	cl, s := swimCluster(t, 6, Config{HeartbeatPeriod: 1e-3, Seed: 3})
	cl.Run(5e-3)
	if !s.Quiet() {
		t.Fatal("a healthy fleet is not quiet")
	}
	cl.CrashNode(2)
	cl.Run(60e-3)
	if len(s.Deaths()) != 1 || s.Deaths()[0].Node != 2 {
		t.Fatalf("deaths = %+v, want node 2 declared", s.Deaths())
	}
	if s.Quiet() {
		t.Fatal("quiet while observers hold node 2 dead")
	}
	cl.RecoverNode(2)
	cl.Run(120e-3)
	for o := 0; o < 6; o++ {
		if o != 2 && s.View(o, 2) != Alive {
			t.Fatalf("observer %d still holds the rejoined node %v", o, s.View(o, 2))
		}
	}
	if s.Quiet() {
		t.Fatal("quiet although views remember node 2's death")
	}
	// A partition as the detector sees it: everything addressed to node 4
	// vanishes for a while, then flows again.
	for until := cl.Time() + 8e-3; cl.Time() < until; {
		cl.Run(cl.Time() + 0.2e-3)
		discardAll(cl, s, 4)
	}
	if s.Stats().Suspicions < 2 {
		t.Fatalf("the cut produced no new suspicion: %+v", s.Stats())
	}
	cl.Run(cl.Time() + 60e-3)
}
