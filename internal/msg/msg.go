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
// Every delivery time comes from a PathModel. The default is the flat
// pipe: one private link per directed node pair, with the latency,
// bandwidth and occupancy above. SetPathModel swaps in a hierarchical
// fabric (internal/topo's rack/spine fat tree) with multi-hop routing and
// shared-uplink contention. A fabric shares links between node pairs and
// names its sharing domains (the fat tree has one per rack); the cluster
// folds same-domain link-sharing into the union-find sharing partition, so
// racks that exchange no cross-rack traffic still run concurrently. The
// pipe shares nothing and has one domain, so the fold merges nothing.
package msg

import (
	"cmp"
	"fmt"
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
}

// Reliable delivery: the initial retransmission timeout (the default of
// RetxTimeoutSec) is an order of magnitude above the healthy round trip,
// doubling per retry up to retxBackoffCap times the initial value; an
// exchange gives up after DefaultMaxRetries loss-induced retransmissions.
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
	Dropped     uint64 // message legs lost (see leg), or sent unreliably to a down node
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

// Injector decides message fates and partition windows for fault
// injection; *fault.Injector implements it. Implementations must be
// deterministic functions of their arguments.
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

// PathModel is the interconnect's cost model: it turns a message into a
// delivery time. The flat pipe (the default, built by New) gives every
// directed pair a private link; topo.Fabric routes through racks behind ToR
// switches joined by a spine. Implementations must be deterministic; all
// occupancy and statistics live inside the model. A model that shares links
// between node pairs breaks the interconnect's disjoint-shard invariant;
// its sharing domains are how the cluster restores it.
type PathModel interface {
	// Grow readies the model for nodes 0..n-1, or reports why it cannot
	// (a fabric joins a fixed node count). The interconnect calls it from
	// single-threaded paths only: SetPathModel and its own Grow.
	Grow(n int) error
	// Transmit charges the model for a from->to message of wire bytes
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

// pipe is the flat cost model: every directed pair (self-sends included)
// has a private link with the configured latency and bandwidth. freeAt is
// the link occupancy, the instant each link is free again, an n*n table
// indexed from*n+to.
type pipe struct {
	lat, bw float64
	n       int
	freeAt  []float64
}

func (p *pipe) Grow(n int) error {
	if n > p.n {
		p.freeAt = regrid(p.freeAt, p.n, n)
		p.n = n
	}
	return nil
}

func (p *pipe) Transmit(now float64, from, to int, wire int64) float64 {
	lk := from*p.n + to
	txEnd := max(now, p.freeAt[lk]) + float64(wire)/p.bw
	p.freeAt[lk] = txEnd
	return txEnd + p.lat
}

func (p *pipe) Estimate(now float64, from, to int, wire int64) float64 {
	return max(now, p.freeAt[from*p.n+to]) + float64(wire)/p.bw + p.lat
}

func (p *pipe) MinLatency() float64 { return p.lat }
func (p *pipe) Domain(int) int      { return 0 }
func (p *pipe) NumDomains() int     { return 1 }

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
// discrete-event structure: Send asks the path model for a delivery time;
// PopDue yields messages in delivery order.
// State is sharded by directed link and by node so disjoint node groups can
// drive it concurrently (see package comment).
type Interconnect struct {
	cfg Config

	inj    Injector
	tracer EventSink
	flat   pipe      // the default cost model
	path   PathModel // never nil: &flat unless SetPathModel replaced it

	// seqs numbers each directed link's message legs (and fate draws), an
	// n*n table indexed from*n+to.
	n     int
	seqs  []uint64
	nodes []nodeState
	stats []Stats // per sending node

	// queueChanged, when set, hears of every change to a node's delivery
	// queue (see OnQueueChange).
	queueChanged func(node int)
}

// New builds an interconnect with cfg. Node structures grow on first use
// (or all at once via Grow).
func New(cfg Config) *Interconnect {
	ic := &Interconnect{cfg: cfg, flat: pipe{lat: cfg.LatencySec, bw: cfg.BytesPerSec}}
	ic.path = &ic.flat
	return ic
}

// Grow presizes the interconnect and its path model for nodes 0..n-1; it
// panics if the model cannot cover them. Growth re-shards the link state,
// so it must happen before concurrent use; cluster construction calls it
// with the final node count.
func (ic *Interconnect) Grow(n int) {
	if n <= ic.n {
		return
	}
	if err := ic.path.Grow(n); err != nil {
		panic(err)
	}
	seqs := regrid(ic.seqs, ic.n, n)
	nodes := make([]nodeState, n)
	copy(nodes, ic.nodes)
	stats := make([]Stats, n)
	copy(stats, ic.stats)
	ic.n, ic.seqs, ic.nodes, ic.stats = n, seqs, nodes, stats
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

// link returns the from->to link's index into seqs, growing the
// interconnect to cover both nodes.
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

// MinLatency returns the path model's minimum one-way latency over all
// routes — the lookahead floor for conservative parallel co-simulation
// over this interconnect.
func (ic *Interconnect) MinLatency() float64 { return ic.path.MinLatency() }

// SetPathModel installs pm in place of the current cost model, grown to
// the interconnect's nodes; it returns pm's error if pm cannot cover them.
// Install before any traffic flows and before the cluster chooses its
// engine: the parallel backend reads MinLatency at configuration time.
func (ic *Interconnect) SetPathModel(pm PathModel) error {
	if err := pm.Grow(ic.n); err != nil {
		return err
	}
	ic.path = pm
	return nil
}

// LinkBytes returns the bytes the per-link sequence numbers hold, eight per
// directed node pair.
func (ic *Interconnect) LinkBytes() int { return 8 * len(ic.seqs) }

// Path returns the installed path model: the flat pipe unless SetPathModel
// replaced it.
func (ic *Interconnect) Path() PathModel { return ic.path }

// SetInjector installs (or, with nil, removes) a fault injector, whose
// partition windows are enforced on every delivery and retransmission.
func (ic *Interconnect) SetInjector(inj Injector) { ic.inj = inj }

// SetTracer installs an event sink for fault/retry diagnostics.
func (ic *Interconnect) SetTracer(s EventSink) { ic.tracer = s }

func (ic *Interconnect) retxTimeout() float64 {
	if ic.cfg.RetxTimeoutSec > 0 {
		return ic.cfg.RetxTimeoutSec
	}
	return DefaultRetxTimeout
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
	if rx.retries > DefaultMaxRetries {
		st.Exhausted++
		return false
	}
	rx.elapsed += rx.rto
	if rx.rto < ic.retxTimeout()*retxBackoffCap {
		rx.rto *= 2
	}
	return true
}

// transmit charges the path model for one from->to message and builds it
// with its fault-free delivery time; the caller decides whether it is
// enqueued. The per-link sequence numbers keying fault fates are the
// interconnect's, so an identical fault plan draws the identical fate
// stream whatever the model.
func (ic *Interconnect) transmit(now float64, from, to int, t Type, size int64, payload interface{}) Message {
	wire := size + ic.cfg.HeaderBytes
	lk := ic.link(from, to) // before the model: link may grow it
	deliver := ic.path.Transmit(now, from, to, wire)
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
// false when its leg was lost (see leg) or its destination was down at
// delivery. A sender that reuses its payloads takes a lost one back.
func (ic *Interconnect) SendQueued(now float64, from, to int, t Type, size int64, payload interface{}) (float64, bool) {
	m := ic.transmit(now, from, to, t, size, payload)
	if ic.inj != nil {
		st := &ic.stats[from]
		jit, dup, loss := ic.leg(st, now, m.Deliver, from, to, m.Seq)
		m.Deliver += jit
		if loss == "" && ic.inj.NodeDown(to, m.Deliver) {
			st.Dropped++
			loss = "drop"
		}
		if loss != "" {
			if ic.tracer != nil {
				ic.tracer.RecordNode(from, now, loss, fmt.Sprintf("type %d %d->%d seq %d", t, from, to, m.Seq))
			}
			return m.Deliver, false
		}
		if dup {
			ic.pushDuplicate(st, now, m, m.Deliver+ic.path.MinLatency())
		}
	}
	ic.push(m)
	return m.Deliver, true
}

// pushDuplicate enqueues a second copy of m, sent at sent on its own
// sequence number and with its own payload (see Duplicator), for delivery at
// deliver plus the copy's own jitter, unless the copy's leg is lost.
func (ic *Interconnect) pushDuplicate(st *Stats, sent float64, m Message, deliver float64) {
	m.Seq = ic.nextSeq(m.From, m.To)
	jit, _, loss := ic.leg(st, sent, deliver, m.From, m.To, m.Seq)
	if loss != "" {
		return
	}
	m.Deliver = deliver + jit
	st.Duplicated++
	if d, ok := m.Payload.(Duplicator); ok {
		m.Payload = d.Duplicate()
	}
	ic.push(m)
}

// leg decides the fate of one message leg from->to, numbered seq on its
// link, sent at at and delivered at deliver by a fault-free fabric. In this
// order: the leg's fate is drawn at the send instant; a cut of the link at
// the jittered delivery instant loses the leg (Dropped, PartitionDrops);
// else the drop draw does (Dropped). It returns the jitter, not an instant,
// so every caller's sum stays bit-exact; the duplication flag; and the loss,
// "cut" or "drop" ("" for a delivered leg). Whether the destination is up
// is for the callers to judge (DESIGN.md §8).
func (ic *Interconnect) leg(st *Stats, at, deliver float64, from, to int, seq uint64) (jit float64, dup bool, loss string) {
	drop, dup, jit := ic.inj.Fate(at, from, to, seq)
	if cut := ic.inj.LinkCut(deliver+jit, from, to); cut || drop {
		st.Dropped++
		loss = "drop"
		if cut {
			st.PartitionDrops++
			loss = "cut"
		}
	}
	return jit, dup, loss
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
	deliver, _, ok := ic.reliable(now, &exchange{from: from, to: to, t: t, size: size, payload: payload})
	return deliver, ok
}

// RoundTripTime estimates a small-request/sized-reply exchange starting at
// time now, used to model request+reply service pairs without enqueuing
// messages. Each leg waits for its directed link's current occupancy, like
// Send does, but the estimate does not consume occupancy itself.
func (ic *Interconnect) RoundTripTime(now float64, from, to int, replySize int64) float64 {
	ic.link(from, to) // before the model: link may grow it
	arrive := ic.path.Estimate(now, from, to, ic.cfg.HeaderBytes)
	done := ic.path.Estimate(arrive, to, from, replySize+ic.cfg.HeaderBytes)
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
	done, elapsed, ok := ic.reliable(now, &exchange{from: from, to: to, rtt: true, size: replySize})
	if !ok {
		return elapsed, false
	}
	return done, true
}

// exchange is one reliable exchange from->to: a send carries a size-byte
// message of type t on the forward leg; a round trip (rtt) fetches a
// size-byte reply over both legs and queues nothing.
type exchange struct {
	from, to int
	rtt      bool
	t        Type
	size     int64
	payload  interface{}
}

// reliable is the retransmission policy of both exchanges. Each round, at
// now plus the time burnt so far, waits out a known-finite outage of the
// destination (a permanent one gives up), stalls to the latest heal of a cut
// on the exchange's legs, loses the round to a cut that never heals, or else
// makes one attempt; a lost round backs off through retry. It returns the
// attempt's result or the give-up instant, and the time burnt before it.
func (ic *Interconnect) reliable(now float64, ex *exchange) (done, elapsed float64, ok bool) {
	ic.link(ex.from, ex.to)
	st := &ic.stats[ex.from]
	fail := "send-fail"
	if ex.rtt {
		fail = "rtt-fail"
	}
	rx := retx{rto: ic.retxTimeout()}
	for {
		at := now + rx.elapsed
		if ic.inj.NodeDown(ex.to, at) {
			rec, ok := ic.inj.NodeRecoverAt(ex.to, at)
			if !ok {
				st.Exhausted++
				ic.tracex(ex, at, fail, "destination down permanently", &rx)
				return at, rx.elapsed, false
			}
			st.CrashStalls++
			rx.elapsed = rec - now + rx.rto
			continue
		}
		var loss string
		switch heal, cut, heals := ic.cutLegs(at, ex); {
		case cut && heals:
			st.PartitionStalls++
			ic.tracex(ex, at, "cut-stall", "partitioned, stalling to the heal", &rx)
			rx.elapsed = heal - now + rx.rto
			continue
		case cut:
			st.PartitionDrops++
			loss = "partitioned"
		default:
			done, loss = ic.attempt(at, ex, st, &rx)
		}
		if loss == "" {
			return done, rx.elapsed, true
		}
		again := ic.retry(st, &rx)
		ic.tracex(ex, at, "retx", loss, &rx)
		if !again {
			ic.tracex(ex, at, fail, "retries exhausted", &rx)
			return at, rx.elapsed, false
		}
	}
}

// cutLegs reports whether a cut severs ex's forward leg at at, or for a
// round trip either leg, and, when every such cut heals, the latest heal.
func (ic *Interconnect) cutLegs(at float64, ex *exchange) (heal float64, cut, heals bool) {
	heal = at
	for i, l := range [2][2]int{{ex.from, ex.to}, {ex.to, ex.from}} {
		if i == 1 && !ex.rtt || !ic.inj.LinkCut(at, l[0], l[1]) {
			continue
		}
		cut = true
		h, ok := ic.inj.LinkClearAt(at, l[0], l[1])
		if !ok {
			return at, true, false
		}
		heal = max(heal, h)
	}
	return heal, cut, true
}

// attempt makes one try of ex at at and returns its result and, for a lost
// try, how leg lost it (and counted the loss). A round trip is estimated, not
// transmitted: both legs are sent and judged at the attempt instant, and it
// takes the estimated round trip plus their jitter. A send transmits its
// message; a duplication fault, or a lost acknowledgement (a leg back from
// the message's delivery instant), queues a copy the receiver has seen.
func (ic *Interconnect) attempt(at float64, ex *exchange, st *Stats, rx *retx) (float64, string) {
	if ex.rtt {
		reqJit, _, reqLoss := ic.leg(st, at, at, ex.from, ex.to, ic.nextSeq(ex.from, ex.to))
		repJit, _, repLoss := ic.leg(st, at, at, ex.to, ex.from, ic.nextSeq(ex.to, ex.from))
		return rx.elapsed + ic.RoundTripTime(at, ex.from, ex.to, ex.size) + reqJit + repJit, cmp.Or(reqLoss, repLoss)
	}
	m := ic.transmit(at, ex.from, ex.to, ex.t, ex.size, ex.payload)
	jit, dup, loss := ic.leg(st, at, m.Deliver, ex.from, ex.to, m.Seq)
	if loss != "" {
		return 0, loss
	}
	m.Deliver += jit
	ic.push(m)
	if _, _, ack := ic.leg(st, m.Deliver, m.Deliver, ex.to, ex.from, ic.nextSeq(ex.to, ex.from)); dup || ack != "" {
		ic.pushDuplicate(st, at+rx.rto, m, m.Deliver+rx.rto)
	}
	return m.Deliver, ""
}

// tracex records one step of ex's retransmission in the sender's shard,
// formatting nothing unless a tracer is installed.
func (ic *Interconnect) tracex(ex *exchange, at float64, kind, what string, rx *retx) {
	if ic.tracer == nil {
		return
	}
	what = fmt.Sprintf("%d->%d: %s, retry %d, %.6g s elapsed", ex.from, ex.to, what, rx.retries, rx.elapsed)
	if !ex.rtt {
		what = fmt.Sprintf("type %d %s", ex.t, what)
	}
	ic.tracer.RecordNode(ex.from, at, kind, what)
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
