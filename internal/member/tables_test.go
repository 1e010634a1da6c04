package member

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refObserver is one observer's state the way the service kept it before
// the tables: maps keyed by target, walked in sorted key order.
type refObserver struct {
	views map[int]*view
	rtt   map[int]float64
	flaps map[int]uint64
}

// refUnion is the confirmation union as it was, one allocation per growth.
func refUnion(a, b confirms, self, n int) (confirms, bool) {
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

// TestObserverTablesMatchMaps drives seeded random sequences of
// materialise, prune, suspect, refute, confirm, verdict, defer, readmit,
// recovery, RTT samples and flaps through the service's tables and through
// the maps they replaced. After every step each observer's records, their
// iteration order and every pointer handed out so far agree with the maps,
// and so do RTTTowards, FlapsTowards and AliveCount; every confirmation set
// ever built still holds what it held when built.
func TestObserverTablesMatchMaps(t *testing.T) {
	// 150 nodes: the rtt tables grow past their first chunk, and the
	// confirmation sets span three words.
	const n, steps = 150, 3000
	for seed := int64(1); seed <= 4; seed++ {
		_, s := swimCluster(t, n, Config{HeartbeatPeriod: 1e-3, Seed: seed})
		r := rand.New(rand.NewSource(seed))
		observers := []int{0, 1, 74, n - 1}
		ref := make(map[int]*refObserver)
		held := make(map[int]map[int]*view) // pointers handed out, per observer
		for _, o := range observers {
			ref[o] = &refObserver{views: map[int]*view{}, rtt: map[int]float64{}, flaps: map[int]uint64{}}
			held[o] = map[int]*view{}
		}
		type built struct{ set, was confirms }
		var sets []built
		targetOf := func(o int) int {
			tg := r.Intn(n - 1)
			if tg >= o {
				tg++
			}
			return tg
		}
		// both materialises target in both models and returns the records.
		both := func(o, tg int) (*view, *view) {
			v := s.mview(o, tg)
			if p, ok := held[o][tg]; ok && p != v {
				t.Fatalf("seed %d: observer %d's record of %d moved", seed, o, tg)
			}
			held[o][tg] = v
			rv := ref[o].views[tg]
			if rv == nil {
				rv = &view{target: tg, state: Alive, inc: 1, deadline: inf}
				ref[o].views[tg] = rv
			}
			return v, rv
		}
		flap := func(o, tg int) {
			s.obs[o].flap(tg)
			ref[o].flaps[tg]++
		}
		for step := 0; step < steps; step++ {
			o := observers[r.Intn(len(observers))]
			tg := targetOf(o)
			switch op := r.Intn(12); op {
			case 0: // materialise
				both(o, tg)
			case 1: // prune
				s.maybePrune(o, tg)
				if v := ref[o].views[tg]; v != nil && v.state == Alive && v.inc <= 1 && v.epoch == 0 && v.deadInc == 0 && !v.deferred {
					delete(ref[o].views, tg)
					delete(held[o], tg)
				}
			case 2: // suspect
				v, rv := both(o, tg)
				if v.state == Alive {
					d := float64(step) * 1e-4
					v.state, v.deadline, v.gen = Suspect, d, uint64(step)
					rv.state, rv.deadline, rv.gen = Suspect, d, uint64(step)
				}
			case 3: // refute
				v, rv := both(o, tg)
				if v.state == Suspect {
					v.state, v.epoch, v.deadline, v.deferred, v.conf = Alive, v.epoch+1, inf, false, nil
					rv.state, rv.epoch, rv.deadline, rv.deferred, rv.conf = Alive, rv.epoch+1, inf, false, nil
					flap(o, tg)
				}
			case 4: // confirm
				v, rv := both(o, tg)
				if v.state != Suspect {
					break
				}
				in, _ := refUnion(nil, nil, r.Intn(n), n)
				self := -1
				if r.Intn(2) == 0 {
					self = o
				}
				c, grew := s.obs[o].union(v.conf, in, self, n)
				rc, rgrew := refUnion(rv.conf, in, self, n)
				if grew != rgrew || !slices.Equal(c, rc) {
					t.Fatalf("seed %d step %d: union %v (grew %v), the reference %v (grew %v)", seed, step, c, grew, rc, rgrew)
				}
				if grew {
					sets = append(sets, built{c, slices.Clone(c)})
				}
				v.conf, rv.conf = c, rc
			case 5: // verdict
				v, rv := both(o, tg)
				if v.state == Suspect {
					v.state, v.deadInc, v.deadline, v.conf = Dead, v.inc, inf, nil
					rv.state, rv.deadInc, rv.deadline, rv.conf = Dead, rv.inc, inf, nil
				}
			case 6: // defer
				v, rv := both(o, tg)
				if v.state == Suspect {
					v.deferred, v.deadline = true, inf
					rv.deferred, rv.deadline = true, inf
				}
			case 7: // readmit under a new incarnation
				v, rv := both(o, tg)
				if v.state == Dead {
					v.state, v.inc, v.epoch = Alive, v.inc+1, 0
					rv.state, rv.inc, rv.epoch = Alive, rv.inc+1, 0
					flap(o, tg)
				}
			case 8: // recovery: every record not dead resets, and prunes if it can
				s.Service.NodeRecovered(o, s.cl.Incarnation(o), float64(step)*1e-4)
				for k, v := range ref[o].views {
					if v.state == Dead {
						continue
					}
					v.state, v.deadline, v.deferred, v.conf = Alive, inf, false, nil
					if v.inc <= 1 && v.epoch == 0 && v.deadInc == 0 {
						delete(ref[o].views, k)
						delete(held[o], k)
					}
				}
			default: // an RTT sample
				sample := float64(r.Intn(1000)) * 1e-7
				s.observeRTT(o, tg, sample)
				if old, ok := ref[o].rtt[tg]; ok {
					ref[o].rtt[tg] = old + 0.25*(sample-old)
				} else {
					ref[o].rtt[tg] = sample
				}
			}
			for _, o := range observers {
				compareObserver(t, s.Service, o, ref[o], held[o])
			}
			for _, b := range sets {
				if !slices.Equal(b.set, b.was) {
					t.Fatalf("seed %d step %d: a built confirmation set changed: %v, built as %v", seed, step, b.set, b.was)
				}
			}
		}
		for tg := 0; tg < n; tg++ {
			var sum float64
			k, flaps := 0, uint64(0)
			for o := 0; o < n; o++ {
				if ro := ref[o]; ro != nil {
					if v, ok := ro.rtt[tg]; ok {
						sum += v
						k++
					}
					flaps += ro.flaps[tg]
				}
			}
			got, ok := s.RTTTowards(tg)
			if ok != (k > 0) || ok && got != sum/float64(k) {
				t.Fatalf("seed %d: RTTTowards(%d) = %v %v, the maps say %v over %d", seed, tg, got, ok, sum, k)
			}
			if got := s.FlapsTowards(tg); got != flaps {
				t.Fatalf("seed %d: FlapsTowards(%d) = %d, the maps say %d", seed, tg, got, flaps)
			}
		}
	}
}

// compareObserver holds observer o's tables to the reference maps.
func compareObserver(t *testing.T, s *Service, o int, ref *refObserver, held map[int]*view) {
	t.Helper()
	keys := make([]int, 0, len(ref.views))
	for k := range ref.views {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var order []int
	for _, v := range s.obs[o].views {
		order = append(order, v.target)
	}
	if !slices.Equal(order, keys) {
		t.Fatalf("observer %d walks %v, the map's sorted keys are %v", o, order, keys)
	}
	alive := s.n
	for _, k := range keys {
		v := s.obs[o].view(k)
		if !reflect.DeepEqual(*v, *ref.views[k]) {
			t.Fatalf("observer %d's record of %d is %+v, the map's %+v", o, k, *v, *ref.views[k])
		}
		if v != held[k] {
			t.Fatalf("observer %d's record of %d is not the one handed out", o, k)
		}
		if v.state != Alive {
			alive--
		}
	}
	if got := s.AliveCount(o); got != alive {
		t.Fatalf("AliveCount(%d) = %d, the map says %d", o, got, alive)
	}
	oo := &s.obs[o]
	for k := 0; k < s.n; k++ {
		if k == o {
			continue
		}
		want, wok := ref.rtt[k]
		if got, ok := oo.rttAt(oo.rttSlot(o, k, s.n-1)); ok != wok || got != want {
			t.Fatalf("observer %d's rtt to %d = %v %v, the map's %v %v", o, k, got, ok, want, wok)
		}
	}
	var flapped []int
	for _, f := range oo.flaps {
		flapped = append(flapped, f.target)
		if want := ref.flaps[f.target]; f.n != want {
			t.Fatalf("observer %d's flaps of %d = %d, the map's %d", o, f.target, f.n, want)
		}
	}
	keys = keys[:0]
	for k := range ref.flaps {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	if !slices.Equal(flapped, keys) {
		t.Fatalf("observer %d counts flaps of %v, the map of %v", o, flapped, keys)
	}
}

// TestRotationMatchesPerCallFormula walks several full probe cycles of one
// node, across a crash and a recovery and with one peer held dead, and
// requires the targets the per-cycle cached map yields to be the ones the
// map derived afresh for every probe yields.
func TestRotationMatchesPerCallFormula(t *testing.T) {
	const n, node = 9, 3
	cl, s := swimCluster(t, n, Config{HeartbeatPeriod: 1e-3, Seed: 11})
	dead := s.mview(node, 6)
	dead.state = Dead
	s.suspects++
	s.holdDead(dead, dead.inc)
	m := n - 1
	var cycle uint64
	pos := 0
	// next is nextTarget as it was: cycleParams on every probe.
	next := func() int {
		for tries := 0; tries < 2*m; tries++ {
			a, b := s.cycleParams(node, cycle, m)
			idx := (a*pos + b) % m
			pos++
			if pos >= m {
				pos = 0
				cycle++
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
	for i := 0; i < 6*m; i++ {
		if i == 2*m+3 {
			// Park mid-cycle and resume: the rotation goes on where it was.
			cl.CrashNode(node)
			cl.RecoverNode(node)
		}
		if got, want := s.nextTarget(node), next(); got != want {
			t.Fatalf("probe %d: target %d, the per-call formula gives %d", i, got, want)
		}
	}
	if cycle < 5 {
		t.Fatalf("walked %d cycles, want at least 5", cycle)
	}
}
