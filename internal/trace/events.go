package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Event is one recorded fault/recovery occurrence: a retransmission, a
// node crash, a migration rollback.
type Event struct {
	Time   float64
	Kind   string
	Detail string
}

// EventLog is a bounded recorder satisfying msg.EventSink.
// The kernel and interconnect feed it fault, retry and recovery events;
// chaos experiments read it back to explain a run. Each ring is bounded:
// beyond the capacity the oldest events are overwritten (and counted as
// dropped) rather than growing without bound under a noisy fault plan —
// keeping the most recent window, which is what a post-mortem wants.
//
// Storage is sharded. RecordNode appends to a per-node ring (events a
// node's own schedule produces: retransmissions, fence rejections,
// migration aborts); Record appends to a global ring (events produced
// outside any single node's schedule: membership transitions, timer
// actions, crash plans). A sharing group under the parallel engine replays
// exactly the sequential schedule restricted to its nodes, so every
// per-node stream is engine-invariant, and the canonical merge on read —
// by time, global ring first among equals, then node order, preserving
// each ring's own sequence — yields the same transcript under both
// engines. That is what lets a tracer ride inside grouped parallel windows
// instead of pinning the engine to one inline group. The mutex exists for
// memory safety when group workers grow the shard table concurrently;
// ordering never depends on who wins it.
type EventLog struct {
	mu sync.Mutex
	// max is each ring's capacity; <= 0 means unbounded.
	max    int
	global ring
	nodes  []*ring
}

// ring is one bounded event buffer, oldest-first once unrolled.
type ring struct {
	buf     []Event
	start   int // index of the oldest retained event
	dropped int
}

func (r *ring) record(max int, e Event) {
	if max <= 0 || len(r.buf) < max {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % max
	r.dropped++
}

// events returns the retained events, oldest first.
func (r *ring) events() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	out = append(out, r.buf[:r.start]...)
	return out
}

// NewEventLog builds a log whose rings each retain at most max events
// (<= 0: unbounded).
func NewEventLog(max int) *EventLog { return &EventLog{max: max} }

// Record appends one event to the global ring, overwriting the oldest past
// the capacity.
func (l *EventLog) Record(t float64, kind, detail string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.global.record(l.max, Event{Time: t, Kind: kind, Detail: detail})
}

// RecordNode appends one event to node's ring (the per-node fast
// path). A negative node routes to the global ring.
func (l *EventLog) RecordNode(node int, t float64, kind, detail string) {
	if node < 0 {
		l.Record(t, kind, detail)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for node >= len(l.nodes) {
		l.nodes = append(l.nodes, &ring{})
	}
	l.nodes[node].record(l.max, Event{Time: t, Kind: kind, Detail: detail})
}

// Events returns the retained events in the canonical merged order: by
// time, global ring first among equals, then node order, preserving each
// ring's own sequence.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	type tagged struct {
		ev    Event
		shard int // -1 global, else the node index
	}
	all := make([]tagged, 0, l.lenLocked())
	for _, e := range l.global.events() {
		all = append(all, tagged{e, -1})
	}
	for n, r := range l.nodes {
		for _, e := range r.events() {
			all = append(all, tagged{e, n})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].ev.Time != all[j].ev.Time {
			return all[i].ev.Time < all[j].ev.Time
		}
		return all[i].shard < all[j].shard
	})
	out := make([]Event, len(all))
	for i, t := range all {
		out[i] = t.ev
	}
	return out
}

// Dropped returns how many events were overwritten at the capacity, summed
// over every ring. Per-node streams are engine-invariant, so each ring's
// drop count — and therefore the sum — is too.
func (l *EventLog) Dropped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.global.dropped
	for _, r := range l.nodes {
		d += r.dropped
	}
	return d
}

func (l *EventLog) lenLocked() int {
	n := len(l.global.buf)
	for _, r := range l.nodes {
		n += len(r.buf)
	}
	return n
}

// Len returns the number of retained events across every ring.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lenLocked()
}

// Count returns how many retained events have the given kind.
func (l *EventLog) Count(kind string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.global.buf {
		if e.Kind == kind {
			n++
		}
	}
	for _, r := range l.nodes {
		for _, e := range r.buf {
			if e.Kind == kind {
				n++
			}
		}
	}
	return n
}

// String renders the log one event per line in the canonical merged order.
func (l *EventLog) String() string {
	var sb strings.Builder
	events := l.Events()
	dropped := l.Dropped()
	for _, e := range events {
		fmt.Fprintf(&sb, "%12.6fs  %-16s %s\n", e.Time, e.Kind, e.Detail)
	}
	if dropped > 0 {
		fmt.Fprintf(&sb, "  ... %d older events dropped at the %d-event-per-ring cap\n", dropped, l.max)
	}
	return sb.String()
}
