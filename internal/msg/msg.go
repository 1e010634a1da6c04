// Package msg implements the inter-kernel messaging layer and the
// interconnect timing model. The evaluation testbed joined the two servers
// with a Dolphin ICS PXH810 PCIe link (up to 64 Gb/s); the model charges
// every message a per-hop latency plus serialisation time at the link
// bandwidth, with per-directed-link occupancy.
//
// The interconnect is optionally lossy: an installed Injector (see
// internal/fault) can drop, duplicate or jitter messages and take nodes
// offline. Reliable senders (SendReliable, ReliableRTT) model an
// acknowledged channel with timeout-driven, capped exponential-backoff
// retransmission on top of the lossy fabric, so the distributed kernel
// services survive message loss at the cost of latency.
//
// The interconnect is the parallel simulation backend's synchronisation
// boundary, so all mutable state is partitioned by directed link (sequence
// numbers, occupancy) or by node (delivery queues, stats shards): workers
// driving disjoint node groups never touch the same cell. Aggregation
// (Stats) and structural growth (Grow) happen only at barriers.
//
// The flat pipe is one of two cost models: SetPathModel plugs a
// hierarchical fabric (internal/topo's rack/spine fat tree) under the same
// message layer, replacing the delivery-time computation with multi-hop
// routing and shared-uplink contention. A fabric shares links between node
// pairs and names its sharing domains (the fat tree has one per rack); the
// cluster folds same-domain link-sharing into the union-find sharing
// partition, so racks that exchange no cross-rack traffic still run
// concurrently. Without a path model nothing changes — the flat pipe is the
// default and the regression baseline.
package msg

import (
	"fmt"
	"slices"
)

// Type tags inter-kernel messages.
type Type int

// Message types used by the distributed kernel services.
const (
	// TPageReply carries a DSM page (or write-upgrade grant).
	TPageReply Type = iota
	// TThreadMigrate carries a migrating thread's transformed register
	// state and residual metadata.
	TThreadMigrate
	// TFSOp carries a remote filesystem operation or its reply.
	TFSOp
	// TRemoteWake wakes a joiner blocked on another node.
	TRemoteWake
	// TSerializedState carries whole-state serialization payloads (the
	// PadMig-style baseline).
	TSerializedState
	// THeartbeat carries a membership lease heartbeat (node liveness plus
	// incarnation number); sent unreliably, loss is the signal.
	THeartbeat
)

// Message is one inter-kernel message.
type Message struct {
	// Seq numbers the message on its directed (From, To) link; the fault
	// injector keys fates off it.
	Seq      uint64
	From, To int
	Type     Type
	Size     int64 // payload bytes, for the bandwidth model
	// Deliver is the simulated delivery time in seconds.
	Deliver float64
	// Payload is interpreted by the handler for Type.
	Payload interface{}

	// arrival orders same-instant deliveries at one destination (assigned
	// at enqueue time, deterministic because each destination is fed by a
	// single scheduling goroutine between barriers).
	arrival uint64
}

// Config describes the interconnect.
type Config struct {
	// LatencySec is the one-way message latency.
	LatencySec float64
	// BytesPerSec is the link bandwidth.
	BytesPerSec float64
	// HeaderBytes is added to every message's wire size.
	HeaderBytes int64
	// RetxTimeoutSec is the reliable senders' initial retransmission
	// timeout; 0 selects DefaultRetxTimeout.
	RetxTimeoutSec float64
	// MaxRetries caps loss-induced retransmissions per reliable exchange;
	// 0 selects DefaultMaxRetries.
	MaxRetries int
}

// Reliable-delivery defaults: the initial retransmission timeout is an
// order of magnitude above the healthy round trip, doubling per retry up
// to retxBackoffCap times the initial value.
const (
	DefaultRetxTimeout = 25e-6
	DefaultMaxRetries  = 8
	retxBackoffCap     = 32
)

// DolphinPXH810 models the testbed's interconnect: sub-microsecond PCIe
// latency and 64 Gb/s of bandwidth.
func DolphinPXH810() Config {
	return Config{LatencySec: 0.9e-6, BytesPerSec: 8e9, HeaderBytes: 64}
}

// Stats aggregates traffic counters.
type Stats struct {
	Messages uint64
	Bytes    uint64
	// Fault-injection and reliable-delivery counters; all stay zero on a
	// healthy interconnect. Two runs of the same workload under the same
	// fault plan produce identical counters.
	Dropped     uint64 // message legs lost to the injector or a dead node
	Duplicated  uint64 // duplicate deliveries enqueued (lost acks, dup faults)
	Retries     uint64 // retransmissions by reliable senders
	Exhausted   uint64 // reliable exchanges that gave up
	CrashStalls uint64 // reliable exchanges that waited out a node outage

	PartitionDrops  uint64 // message legs severed by a partition cut
	PartitionStalls uint64 // reliable exchanges that waited out a known heal
}

func (s *Stats) add(o Stats) {
	s.Messages += o.Messages
	s.Bytes += o.Bytes
	s.Dropped += o.Dropped
	s.Duplicated += o.Duplicated
	s.Retries += o.Retries
	s.Exhausted += o.Exhausted
	s.CrashStalls += o.CrashStalls
	s.PartitionDrops += o.PartitionDrops
	s.PartitionStalls += o.PartitionStalls
}

// Injector decides message fates for fault injection; *fault.Injector
// implements it. Implementations must be deterministic functions of their
// arguments.
type Injector interface {
	// Fate decides whether the message leg identified by (from, to, seq) is
	// dropped or duplicated and how much extra latency it suffers. seq is
	// unique per decision on its directed link; implementations fold the
	// link into the stream so equal seqs on different links draw
	// independently.
	Fate(now float64, from, to int, seq uint64) (drop, dup bool, jitter float64)
	// NodeDown reports whether node is offline at time at.
	NodeDown(node int, at float64) bool
	// NodeRecoverAt returns when a down node rejoins (false: up already,
	// or never).
	NodeRecoverAt(node int, at float64) (float64, bool)
}

// Partitioner extends an Injector with network-partition windows: whole
// link classes severed between two sides of the rack. It is optional — the
// interconnect type-asserts the installed Injector — so injectors without
// partition support keep working unchanged. *fault.Injector implements it.
type Partitioner interface {
	// LinkCut reports whether the directed from->to leg is severed at time
	// at.
	LinkCut(at float64, from, to int) bool
	// LinkClearAt returns the earliest time >= at when the from->to leg is
	// no longer cut (ok=false: a never-healing cut blocks it forever).
	LinkClearAt(at float64, from, to int) (float64, bool)
}

// EventSink receives fault/retry diagnostics; trace.EventLog implements
// it. A sink keeps a private shard per node and merges the shards into one
// canonical order on read, which is what lets tracing run inside grouped
// parallel windows: each node's stream is engine-invariant.
type EventSink interface {
	// Record records an event that has no single owning node. Serial only
	// (between engine steps, or from the scheduling goroutine).
	Record(t float64, kind, detail string)
	// RecordNode records an event produced by node's schedule. Each node's
	// records arrive in nondecreasing time order from a single goroutine
	// at a time (its sharing-group worker).
	RecordNode(node int, t float64, kind, detail string)
}

// GroupPeers is an optional message-payload interface: a payload whose
// semantics involve nodes beyond the message's (From, To) endpoints (a
// SWIM indirect-probe relay names its origin and target) yields them here
// so Cluster.Groups can fold every node an in-flight exchange might touch
// into one sharing group. Payloads without it contribute only their
// endpoints.
type GroupPeers interface {
	GroupPeers(add func(node int))
}

// Duplicator is an optional message-payload interface for payloads whose
// receiver reuses them once delivered (a SWIM frame returns to its
// receiver's free list). A duplicate leg — a duplication fault, or the copy
// a lost acknowledgement makes the reliable sender retransmit — then
// carries Duplicate's private copy instead of sharing the original's
// payload. Payloads without it are shared by both legs.
type Duplicator interface {
	Duplicate() interface{}
}

// PathModel is a pluggable fabric under the interconnect: when installed,
// it replaces the flat latency/bandwidth pipe's delivery-time computation
// with hierarchical routing (topo.Fabric implements it — racks behind ToR
// switches joined by a spine). Implementations must be deterministic; all
// occupancy and statistics live inside the model. A path model shares links
// between node pairs, which breaks the interconnect's disjoint-shard
// invariant; its sharing domains are how the cluster restores it.
type PathModel interface {
	// Nodes is the number of nodes the model routes between; the
	// interconnect refuses to grow past it.
	Nodes() int
	// Transmit charges the fabric for a from->to message of wire bytes
	// (payload plus header) starting at now and returns its delivery time,
	// consuming link occupancy along the route.
	Transmit(now float64, from, to int, wire int64) float64
	// Estimate computes the same delivery time against current occupancy
	// without consuming any (the RoundTripTime contract).
	Estimate(now float64, from, to int, wire int64) float64
	// MinLatency is the minimum zero-byte one-way latency over all
	// routeable pairs — the conservative lookahead floor.
	MinLatency() float64
	// Domain returns the sharing domain of node, and NumDomains the domain
	// count: two cross-domain routes can contend only when they touch a
	// common domain (a rack's ToR uplink), while traffic within one domain
	// touches only per-node private links. Cluster.Groups merges any two
	// sharing groups that both span multiple domains and have a domain in
	// common. topo.Fabric has one domain per rack.
	Domain(node int) int
	NumDomains() int
}

// nodeState is one destination node's private state.
type nodeState struct {
	// q is the delivery queue, a binary min-heap of values ordered by
	// (Deliver, arrival).
	q []Message
	// arrivals orders same-instant deliveries into this node's queue.
	arrivals uint64
	// popped is PopDue's slot: the message it returns lives here until the
	// next PopDue on this node.
	popped Message
}

// Interconnect is the shared fabric between kernels. It is a deterministic
// discrete-event structure: Send computes a delivery time from latency,
// bandwidth and link occupancy; PopDue yields messages in delivery order.
// State is sharded by directed link and by node so disjoint node groups can
// drive it concurrently (see package comment).
type Interconnect struct {
	cfg Config

	inj    Injector
	part   Partitioner // inj's partition view, when it has one
	tracer EventSink
	path   PathModel // nil: the flat pipe (the default and the baseline)

	// The directed links' private state, two n*n tables indexed
	// from*n+to. seqs numbers each link's message legs (and fate draws).
	// busy is the flat pipe's serialisation occupancy, the instant each
	// link is free again; a path model keeps its own, so busy exists only
	// while the flat pipe may read it (see Grow and SetPathModel).
	n     int
	seqs  []uint64
	busy  []float64
	nodes []nodeState
	stats []Stats // per sending node

	// queueChanged, when set, hears of every change to a node's delivery
	// queue (see OnQueueChange).
	queueChanged func(node int)
}

// New builds an interconnect with cfg. Node structures grow on first use
// (or all at once via Grow).
func New(cfg Config) *Interconnect {
	return &Interconnect{cfg: cfg}
}

// Grow presizes the interconnect for nodes 0..n-1. Growth re-shards the
// link state, so it must happen before concurrent use; cluster
// construction calls it with the final node count. The occupancy table
// grows only if it exists or the flat pipe is in use.
func (ic *Interconnect) Grow(n int) {
	if n <= ic.n {
		return
	}
	if ic.path != nil && n > ic.path.Nodes() {
		panic(fmt.Sprintf("msg: growing to %d nodes past the installed path model's %d", n, ic.path.Nodes()))
	}
	seqs := regrid(ic.seqs, ic.n, n)
	var busy []float64
	if ic.path == nil || ic.busy != nil {
		busy = regrid(ic.busy, ic.n, n)
	}
	nodes := make([]nodeState, n)
	copy(nodes, ic.nodes)
	stats := make([]Stats, n)
	copy(stats, ic.stats)
	ic.n, ic.seqs, ic.busy, ic.nodes, ic.stats = n, seqs, busy, nodes, stats
}

// regrid returns an n*n copy of the old*old link table t (nil or empty
// when old is 0), zero outside it.
func regrid[T any](t []T, old, n int) []T {
	out := make([]T, n*n)
	for f := 0; f < old; f++ {
		copy(out[f*n:f*n+old], t[f*old:(f+1)*old])
	}
	return out
}

// ensure grows the structures to cover node (single-threaded paths only).
func (ic *Interconnect) ensure(node int) {
	if node >= ic.n {
		ic.Grow(node + 1)
	}
}

// link returns the from->to link's index into the link tables.
func (ic *Interconnect) link(from, to int) int {
	if from >= ic.n || to >= ic.n {
		ic.ensure(from)
		ic.ensure(to)
	}
	return from*ic.n + to
}

// nextSeq numbers the next leg (or fate draw) on the from->to link.
func (ic *Interconnect) nextSeq(from, to int) uint64 {
	i := ic.link(from, to)
	ic.seqs[i]++
	return ic.seqs[i]
}

func (ic *Interconnect) node(n int) *nodeState {
	ic.ensure(n)
	return &ic.nodes[n]
}

// Stats returns traffic counters summed over all nodes' shards. Call it
// only from the scheduling goroutine (a barrier).
func (ic *Interconnect) Stats() Stats {
	var s Stats
	for i := range ic.stats {
		s.add(ic.stats[i])
	}
	return s
}

// MinLatency returns the minimum one-way link latency — the lookahead floor
// for conservative parallel co-simulation over this interconnect. With a
// path model installed it is the model's minimum over all routes.
func (ic *Interconnect) MinLatency() float64 {
	if ic.path != nil {
		return ic.path.MinLatency()
	}
	return ic.cfg.LatencySec
}

// SetPathModel installs (or, with nil, removes) a hierarchical fabric
// under the interconnect. Install before concurrent use and before the
// cluster chooses its engine: the parallel backend reads MinLatency at
// configuration time.
//
// A model holds its own occupancy, so installing one drops the flat pipe's
// table if no link was ever occupied; removing it allocates a zeroed table
// if none exists. Both read exactly as a table kept all along: a table
// never occupied is all zeros, and one that was occupied is kept.
func (ic *Interconnect) SetPathModel(pm PathModel) error {
	if pm != nil && pm.Nodes() < ic.n {
		return fmt.Errorf("msg: path model covers %d nodes, interconnect already has %d", pm.Nodes(), ic.n)
	}
	ic.path = pm
	switch {
	case pm != nil && !slices.ContainsFunc(ic.busy, func(b float64) bool { return b != 0 }):
		ic.busy = nil
	case pm == nil && ic.busy == nil:
		ic.busy = make([]float64, ic.n*ic.n)
	}
	return nil
}

// LinkBytes returns the bytes the per-link tables hold: eight per directed
// node pair for the sequence numbers, eight more while the flat pipe's
// occupancy table exists.
func (ic *Interconnect) LinkBytes() int { return 8 * (len(ic.seqs) + len(ic.busy)) }

// Path returns the installed path model, or nil for the flat pipe.
func (ic *Interconnect) Path() PathModel { return ic.path }

// redeliverDelay is the extra delay charged to a duplicate copy.
func (ic *Interconnect) redeliverDelay() float64 {
	if ic.path != nil {
		return ic.path.MinLatency()
	}
	return ic.cfg.LatencySec
}

// SetInjector installs (or, with nil, removes) a fault injector. An
// injector that also implements Partitioner gets its partition windows
// enforced on every delivery and retransmission.
func (ic *Interconnect) SetInjector(inj Injector) {
	ic.inj = inj
	ic.part = nil
	if p, ok := inj.(Partitioner); ok {
		ic.part = p
	}
}

// cut reports whether a partition severs the from->to leg at time at.
func (ic *Interconnect) cut(at float64, from, to int) bool {
	return ic.part != nil && ic.part.LinkCut(at, from, to)
}

// SetTracer installs an event sink for fault/retry diagnostics.
func (ic *Interconnect) SetTracer(s EventSink) { ic.tracer = s }

// tracef records a diagnostic produced by node's schedule (the sender of
// the message in question) in node's shard of the sink, so sends inside
// grouped parallel windows stay race-free.
func (ic *Interconnect) tracef(node int, t float64, kind, format string, args ...interface{}) {
	if ic.tracer != nil {
		ic.tracer.RecordNode(node, t, kind, fmt.Sprintf(format, args...))
	}
}

func (ic *Interconnect) retxTimeout() float64 {
	if ic.cfg.RetxTimeoutSec > 0 {
		return ic.cfg.RetxTimeoutSec
	}
	return DefaultRetxTimeout
}

func (ic *Interconnect) maxRetries() int {
	if ic.cfg.MaxRetries > 0 {
		return ic.cfg.MaxRetries
	}
	return DefaultMaxRetries
}

// retx is the retransmission state of one reliable exchange: the time
// burnt on timeouts and stalls so far, the current timeout and the retries
// consumed.
type retx struct {
	elapsed, rto float64
	retries      int
}

// retry books the retransmission after a lost attempt (the caller counts
// the loss itself and traces both outcomes). Past the retry budget the
// exchange is given up: Exhausted is counted and retry returns false.
// Otherwise the sender waits out the timeout, which doubles up to
// retxBackoffCap times its initial value.
func (ic *Interconnect) retry(st *Stats, rx *retx) bool {
	st.Retries++
	rx.retries++
	if rx.retries > ic.maxRetries() {
		st.Exhausted++
		return false
	}
	rx.elapsed += rx.rto
	if rx.rto < ic.retxTimeout()*retxBackoffCap {
		rx.rto *= 2
	}
	return true
}

// transmit charges the from->to link for one message and builds it with
// its fault-free delivery time; the caller decides whether it is enqueued.
// With a path model installed the delivery time comes from the fabric
// (which holds all occupancy); the per-link sequence numbers keying fault
// fates are unchanged either way, so an identical fault plan draws the
// identical fate stream on both models.
func (ic *Interconnect) transmit(now float64, from, to int, t Type, size int64, payload interface{}) Message {
	wire := size + ic.cfg.HeaderBytes
	lk := ic.link(from, to)
	var deliver float64
	if ic.path != nil {
		deliver = ic.path.Transmit(now, from, to, wire)
	} else {
		start := now
		if b := ic.busy[lk]; b > start {
			start = b
		}
		txEnd := start + float64(wire)/ic.cfg.BytesPerSec
		ic.busy[lk] = txEnd
		deliver = txEnd + ic.cfg.LatencySec
	}

	ic.seqs[lk]++
	ic.stats[from].Messages++
	ic.stats[from].Bytes += uint64(wire)
	return Message{
		Seq: ic.seqs[lk], From: from, To: to, Type: t,
		Size: size, Deliver: deliver, Payload: payload,
	}
}

// OnQueueChange installs fn to be called with the destination node
// whenever that node's delivery queue gains or loses a message — NextDeliver
// may answer differently afterwards. It runs on the goroutine that made the
// change, which inside a parallel window is the worker owning the node.
func (ic *Interconnect) OnQueueChange(fn func(node int)) { ic.queueChanged = fn }

func (ic *Interconnect) noteQueue(node int) {
	if ic.queueChanged != nil {
		ic.queueChanged(node)
	}
}

func (ic *Interconnect) push(m Message) {
	ns := ic.node(m.To)
	ns.arrivals++
	m.arrival = ns.arrivals
	ns.push(m)
	ic.noteQueue(m.To)
}

// Send enqueues a message at time now and returns its (possibly jittered)
// delivery time. With an injector installed the message may be lost — a
// dropped message is never enqueued and the returned time is where it
// would have arrived — so callers needing delivery guarantees use
// SendReliable.
func (ic *Interconnect) Send(now float64, from, to int, t Type, size int64, payload interface{}) float64 {
	deliver, _ := ic.SendQueued(now, from, to, t, size, payload)
	return deliver
}

// SendQueued is Send that also reports whether the message was queued:
// false when the injector dropped it, a partition cut it or its
// destination was down. A sender that reuses its payloads takes a dropped
// one back.
func (ic *Interconnect) SendQueued(now float64, from, to int, t Type, size int64, payload interface{}) (float64, bool) {
	m := ic.transmit(now, from, to, t, size, payload)
	if ic.inj != nil {
		drop, dup, jit := ic.inj.Fate(now, from, to, m.Seq)
		m.Deliver += jit
		if ic.cut(m.Deliver, from, to) {
			ic.stats[from].Dropped++
			ic.stats[from].PartitionDrops++
			ic.tracef(from, now, "cut", "type %d %d->%d seq %d", t, from, to, m.Seq)
			return m.Deliver, false
		}
		if drop || ic.inj.NodeDown(to, m.Deliver) {
			ic.stats[from].Dropped++
			ic.tracef(from, now, "drop", "type %d %d->%d seq %d", t, from, to, m.Seq)
			return m.Deliver, false
		}
		if dup {
			ic.pushDuplicate(&ic.stats[from], m, m.Deliver+ic.redeliverDelay())
		}
	}
	ic.push(m)
	return m.Deliver, true
}

// pushDuplicate enqueues a second copy of m delivered at deliver, on its
// own sequence number and with its own payload (see Duplicator), unless a
// partition cuts the copy's leg.
func (ic *Interconnect) pushDuplicate(st *Stats, m Message, deliver float64) {
	m.Seq = ic.nextSeq(m.From, m.To)
	m.Deliver = deliver
	if ic.cut(deliver, m.From, m.To) {
		st.PartitionDrops++
		return
	}
	st.Duplicated++
	if d, ok := m.Payload.(Duplicator); ok {
		m.Payload = d.Duplicate()
	}
	ic.push(m)
}

// SendReliable models an acknowledged send: every lost attempt costs the
// sender one retransmission timeout (doubling per retry, capped) before
// the next try, and a destination inside a known-finite outage is waited
// out without consuming the retry budget (the sender backs off to a
// keepalive cadence). A lost acknowledgement or a duplication fault
// enqueues a second copy the receiver must tolerate. It returns the
// delivery time of the surviving copy, or (t, false) if the message could
// not be delivered — retries exhausted or the destination never recovers
// — in which case nothing was enqueued and t is when the sender gave up.
func (ic *Interconnect) SendReliable(now float64, from, to int, t Type, size int64, payload interface{}) (float64, bool) {
	if ic.inj == nil {
		return ic.Send(now, from, to, t, size, payload), true
	}
	ic.ensure(from)
	ic.ensure(to)
	st := &ic.stats[from]
	rx := retx{rto: ic.retxTimeout()}
	for {
		at := now + rx.elapsed
		if ic.inj.NodeDown(to, at) {
			rec, ok := ic.inj.NodeRecoverAt(to, at)
			if !ok {
				st.Exhausted++
				ic.tracef(from, at, "send-fail", "type %d %d->%d: node %d down permanently", t, from, to, to)
				return at, false
			}
			st.CrashStalls++
			rx.elapsed = rec - now + rx.rto
			continue
		}
		if ic.cut(at, from, to) {
			// A partition with a known heal is waited out like a crash; a
			// never-healing cut burns the retry budget at the backoff cadence
			// (the sender cannot distinguish it from loss).
			if heal, ok := ic.part.LinkClearAt(at, from, to); ok {
				st.PartitionStalls++
				ic.tracef(from, at, "cut-stall", "type %d %d->%d: partitioned until %.6g", t, from, to, heal)
				rx.elapsed = heal - now + rx.rto
				continue
			}
			st.PartitionDrops++
			again := ic.retry(st, &rx)
			ic.tracef(from, at, "retx", "type %d %d->%d cut, retry %d", t, from, to, rx.retries)
			if !again {
				ic.tracef(from, at, "send-fail", "type %d %d->%d: partitioned permanently", t, from, to)
				return at, false
			}
			continue
		}
		m := ic.transmit(at, from, to, t, size, payload)
		drop, dup, jit := ic.inj.Fate(at, from, to, m.Seq)
		if drop {
			st.Dropped++
			again := ic.retry(st, &rx)
			ic.tracef(from, at, "retx", "type %d %d->%d seq %d retry %d", t, from, to, m.Seq, rx.retries)
			if !again {
				ic.tracef(from, at, "send-fail", "type %d %d->%d: retries exhausted", t, from, to)
				return at, false
			}
			continue
		}
		m.Deliver += jit
		if ic.cut(m.Deliver, from, to) {
			// The cut landed while the leg was in flight: it is lost and the
			// sender retransmits after the timeout.
			st.Dropped++
			st.PartitionDrops++
			again := ic.retry(st, &rx)
			ic.tracef(from, at, "retx", "type %d %d->%d seq %d cut in flight, retry %d", t, from, to, m.Seq, rx.retries)
			if !again {
				ic.tracef(from, at, "send-fail", "type %d %d->%d: partitioned permanently", t, from, to)
				return at, false
			}
			continue
		}
		ic.push(m)
		// Decide the acknowledgement's fate on the reverse link: a lost ack
		// makes the sender retransmit a copy the receiver has already seen.
		// An asymmetric partition that severs only the reverse leg loses the
		// ack the same way.
		ackDrop, _, _ := ic.inj.Fate(m.Deliver, to, from, ic.nextSeq(to, from))
		if ic.cut(m.Deliver, to, from) {
			ackDrop = true
		}
		if dup || ackDrop {
			ic.pushDuplicate(st, m, m.Deliver+rx.rto)
		}
		return m.Deliver, true
	}
}

// RoundTripTime estimates a small-request/sized-reply exchange starting at
// time now, used to model request+reply service pairs without enqueuing
// messages. Each leg waits for its directed link's current occupancy, like
// Send does, but the estimate does not consume occupancy itself.
func (ic *Interconnect) RoundTripTime(now float64, from, to int, replySize int64) float64 {
	if ic.path != nil {
		arrive := ic.path.Estimate(now, from, to, ic.cfg.HeaderBytes)
		done := ic.path.Estimate(arrive, to, from, replySize+ic.cfg.HeaderBytes)
		return done - now
	}
	fwd, back := ic.link(from, to), ic.link(to, from) // before reading busy: link may grow it
	start := now
	if b := ic.busy[fwd]; b > start {
		start = b
	}
	arrive := start + float64(ic.cfg.HeaderBytes)/ic.cfg.BytesPerSec + ic.cfg.LatencySec
	replyStart := arrive
	if b := ic.busy[back]; b > replyStart {
		replyStart = b
	}
	done := replyStart + float64(replySize+ic.cfg.HeaderBytes)/ic.cfg.BytesPerSec + ic.cfg.LatencySec
	return done - now
}

// ReliableRTT models a synchronous request/reply exchange (a DSM page
// fetch, an invalidation) over the lossy fabric: a lost leg costs one
// retransmission timeout (capped exponential backoff), and a peer inside a
// known-finite outage is waited out without consuming the retry budget.
// It returns the total elapsed seconds at the requester and false if the
// exchange could not complete (retries exhausted or the peer never
// recovers).
func (ic *Interconnect) ReliableRTT(now float64, from, to int, replySize int64) (float64, bool) {
	if ic.inj == nil || from == to {
		return ic.RoundTripTime(now, from, to, replySize), true
	}
	ic.ensure(from)
	ic.ensure(to)
	st := &ic.stats[from]
	rx := retx{rto: ic.retxTimeout()}
	for {
		at := now + rx.elapsed
		if ic.inj.NodeDown(to, at) {
			rec, ok := ic.inj.NodeRecoverAt(to, at)
			if !ok {
				st.Exhausted++
				ic.tracef(from, at, "rtt-fail", "%d->%d: node %d down permanently", from, to, to)
				return rx.elapsed, false
			}
			st.CrashStalls++
			rx.elapsed = rec - now + rx.rto
			continue
		}
		if ic.cut(at, from, to) || ic.cut(at, to, from) {
			// Either leg severed kills the exchange. Stall to the latest
			// known heal over both legs, or burn the retry budget when a cut
			// never heals.
			heal, ok := at, true
			for _, leg := range [2][2]int{{from, to}, {to, from}} {
				if !ic.cut(at, leg[0], leg[1]) {
					continue
				}
				h, o := ic.part.LinkClearAt(at, leg[0], leg[1])
				if !o {
					ok = false
					break
				}
				if h > heal {
					heal = h
				}
			}
			if ok {
				st.PartitionStalls++
				ic.tracef(from, at, "cut-stall", "rtt %d->%d: partitioned until %.6g", from, to, heal)
				rx.elapsed = heal - now + rx.rto
				continue
			}
			st.PartitionDrops++
			again := ic.retry(st, &rx)
			ic.tracef(from, at, "retx", "rtt %d->%d cut, retry %d", from, to, rx.retries)
			if !again {
				ic.tracef(from, at, "rtt-fail", "%d->%d: partitioned permanently", from, to)
				return rx.elapsed, false
			}
			continue
		}
		reqDrop, _, reqJit := ic.inj.Fate(at, from, to, ic.nextSeq(from, to))
		repDrop, _, repJit := ic.inj.Fate(at, to, from, ic.nextSeq(to, from))
		if !reqDrop && !repDrop {
			return rx.elapsed + ic.RoundTripTime(at, from, to, replySize) + reqJit + repJit, true
		}
		st.Dropped++
		again := ic.retry(st, &rx)
		ic.tracef(from, at, "retx", "rtt %d->%d retry %d", from, to, rx.retries)
		if !again {
			ic.tracef(from, at, "rtt-fail", "%d->%d: retries exhausted", from, to)
			return rx.elapsed, false
		}
	}
}

// PopDue removes and returns the next message for node due at or before
// now, or nil. The message lives in a slot of node's own and stays valid
// until the next PopDue on node: a caller handles it and lets it go.
func (ic *Interconnect) PopDue(node int, now float64) *Message {
	ns := ic.node(node)
	if len(ns.q) == 0 || ns.q[0].Deliver > now {
		return nil
	}
	ic.noteQueue(node)
	ns.popped = ns.pop()
	return &ns.popped
}

// NextDeliver returns the earliest pending delivery time for node, or
// (0, false) if nothing is queued.
func (ic *Interconnect) NextDeliver(node int) (float64, bool) {
	ns := ic.node(node)
	if len(ns.q) == 0 {
		return 0, false
	}
	return ns.q[0].Deliver, true
}

// Pending returns the number of queued messages for node.
func (ic *Interconnect) Pending(node int) int {
	return len(ic.node(node).q)
}

// Drain removes and returns every queued message for node in delivery
// order (a crashed node's queue sweep). The messages are copies the caller
// owns.
func (ic *Interconnect) Drain(node int) []*Message {
	ns := ic.node(node)
	var out []*Message
	if len(ns.q) > 0 {
		ms := make([]Message, len(ns.q))
		out = make([]*Message, len(ms))
		for i := range ms {
			ms[i] = ns.pop()
			out[i] = &ms[i]
		}
	}
	ic.noteQueue(node)
	return out
}

// Requeue re-enqueues a copy of a drained message with a new delivery time
// (redelivery after the destination recovers).
func (ic *Interconnect) Requeue(m *Message, deliver float64) {
	m.Deliver = deliver
	ic.push(*m)
}

// ForEachPending calls fn for every queued message across all nodes, in
// node order then heap (not delivery) order. fn must not keep the pointer.
// Barrier-only: it reads every node's queue, so it must never run
// concurrently with group workers. Cluster.Groups uses it to fold
// in-flight exchanges into the sharing partition.
func (ic *Interconnect) ForEachPending(fn func(*Message)) {
	for i := range ic.nodes {
		q := ic.nodes[i].q
		for j := range q {
			fn(&q[j])
		}
	}
}

// Sweep removes queued messages for which drop returns true, returning how
// many were reclaimed. nodes scopes the sweep to those destinations (nil
// sweeps every node); callers running inside a parallel epoch pass the
// affected process's sharing set so the sweep stays group-local. Used to
// garbage-collect in-flight messages that reference a reaped process.
func (ic *Interconnect) Sweep(nodes []int, drop func(*Message) bool) int {
	if nodes == nil {
		nodes = make([]int, ic.n)
		for i := range nodes {
			nodes[i] = i
		}
	}
	n := 0
	for _, nd := range nodes {
		if nd < 0 || nd >= ic.n {
			continue
		}
		ns := &ic.nodes[nd]
		kept := 0
		for i := range ns.q {
			if drop(&ns.q[i]) {
				n++
				continue
			}
			ns.q[kept] = ns.q[i]
			kept++
		}
		ns.truncate(kept)
		ns.init()
		ic.noteQueue(nd)
	}
	return n
}

// queueKeepCap is the largest backing array an emptied delivery queue
// keeps. A node whose queue grew in a burst (a crash sweep's requeue, a
// busy node's DSM traffic) gives the backing array back once it drains,
// rather than holding its peak for the rest of the run.
const queueKeepCap = 32

// The heap operations below make exactly the moves the standard library's
// heap package makes in Push, Pop and Init with Less on (Deliver, arrival),
// so the queue's layout — which ForEachPending exposes — is what it always
// was (TestQueueMatchesContainerHeap). arrival is unique per destination,
// so the pop order is total, ties in Deliver included.

// before orders two queued messages: delivery time, then arrival.
func before(a, b *Message) bool {
	if a.Deliver != b.Deliver {
		return a.Deliver < b.Deliver
	}
	return a.arrival < b.arrival
}

// push adds m to the heap (heap.Push).
func (ns *nodeState) push(m Message) {
	ns.q = append(ns.q, m)
	ns.up(len(ns.q) - 1)
}

// pop removes and returns the heap's minimum (heap.Pop).
func (ns *nodeState) pop() Message {
	n := len(ns.q) - 1
	ns.q[0], ns.q[n] = ns.q[n], ns.q[0]
	ns.down(0, n)
	m := ns.q[n]
	ns.truncate(n)
	return m
}

// init restores the heap property over the whole queue (heap.Init).
func (ns *nodeState) init() {
	n := len(ns.q)
	for i := n/2 - 1; i >= 0; i-- {
		ns.down(i, n)
	}
}

// truncate shortens the queue to n messages, clearing the vacated cells so
// they pin no payload, and lets an emptied queue drop an oversized array.
func (ns *nodeState) truncate(n int) {
	clear(ns.q[n:])
	ns.q = ns.q[:n]
	if n == 0 && cap(ns.q) > queueKeepCap {
		ns.q = nil
	}
}

func (ns *nodeState) up(j int) {
	q := ns.q
	for j > 0 {
		i := (j - 1) / 2
		if !before(&q[j], &q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (ns *nodeState) down(i, n int) {
	q := ns.q
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && before(&q[j2], &q[j]) {
			j = j2
		}
		if !before(&q[j], &q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}
