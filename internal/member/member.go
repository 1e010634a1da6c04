// Package member implements the cluster's membership and failure-detection
// service: Service (Attach), a SWIM-style gossip detector. Each round a node
// directly probes one pseudo-randomly rotated peer, escalates a missed ack
// to k indirect probes relayed through witnesses (ping-req), and only then
// suspects; alive/suspect/dead assertions — fenced by incarnation and
// refutation-epoch ordering — piggyback on the probe/ack traffic itself, so
// per-node bandwidth is O(1) per round and detector state is sparse (records
// exist only for nodes with an incident history). (The all-pairs lease
// detector this package originally shipped — O(N) messages per node per
// round, O(N^2) state — is gone; DESIGN.md §12 keeps its recorded numbers.)
//
// The detector runs over the modelled interconnect (msg.THeartbeat traffic,
// charged like any other message and subject to fault injection — loss is
// the signal) and hands death verdicts to the kernel
// (Cluster.DeclareNodeDead), which fences the declared incarnation, sweeps
// the DSM directory, and kills stranded processes so a checkpoint service
// can restore them.
//
// It understands partitions: a death verdict is executed only once a
// quorum of the rack (majority, with a documented two-node exception) has
// confirmed the suspicion through the gossip itself; a minority observer
// parks the verdict instead, so the checkpoint manager never restores a
// process on both sides of a split. A node that outlives its own death
// verdict — the partitioned-but-alive false positive — learns of it from
// gossip when the partition heals and rejoins under a bumped incarnation,
// after which incarnation ordering reconciles every divergent view.
//
// Determinism: all membership actions run as per-node control events
// through sim.Model's NextEvent/ApplyEvent path, at simulated times that
// are pure functions of the configuration, seed and message history. Every
// control event is a window barrier for the parallel engine, and between
// them a quiet service (Service.Quiet) only receives frames whose endpoints
// share a sharing group, so sharing groups keep running concurrently; a
// service that is not quiet collapses the engine to the global sequential
// schedule. Either way both engines stay byte-identical — counters included.
package member

import "fmt"

// inf mirrors sim.Inf so due times round-trip through the engine unchanged.
const inf = 1e30

// Config tunes the detector.
type Config struct {
	// HeartbeatPeriod is the protocol round in simulated seconds: the
	// detector sends one direct probe per node per period. Must be > 0.
	HeartbeatPeriod float64
	// SuspectTimeout is how long a suspicion must survive unrefuted before
	// the observer reaches a death verdict. 0 selects 3x the period; it
	// must be >= the period.
	SuspectTimeout float64

	// Quorum is the number of alive-viewed nodes (including the observer)
	// an observer needs to execute a death verdict. 0 selects a majority
	// of the rack — with a two-node exception: majority of 2 is 2, and a
	// lone survivor could then never declare its only peer, so two-node
	// racks use quorum 1 (real deployments break the tie with an external
	// witness).
	Quorum int
	// Seed selects the deterministic stream behind probe-target rotation
	// and witness choice.
	Seed int64
}

// The SWIM timings that are not configurable: each is a count or a fixed
// fraction or multiple of the heartbeat period.
const (
	// indirectProbes is the number of witnesses a SWIM prober asks to
	// ping-req the unresponsive target; capped at n-2.
	indirectProbes = 2
	// gossipRetransmit scales each membership update's piggyback budget:
	// an update rides on gossipRetransmit*ceil(log2(n+1)) outgoing
	// messages before it is retired.
	gossipRetransmit = 3
	// deathMisses is how many re-checks after a suspicion's deadline, on a
	// doubling backoff, may find its confirmations short of quorum before
	// the observer concludes.
	deathMisses = 3
)

// probeTimeout is how long a SWIM prober waits for the direct ack before
// escalating to indirect probes: a quarter period.
func (c Config) probeTimeout() float64 { return c.HeartbeatPeriod / 4 }

// backoffCap caps the doubling re-check backoff: 8x the period.
func (c Config) backoffCap() float64 { return 8 * c.HeartbeatPeriod }

// withDefaults resolves zero fields to their defaults.
func (c Config) withDefaults() Config {
	if c.SuspectTimeout == 0 {
		c.SuspectTimeout = 3 * c.HeartbeatPeriod
	}
	return c
}

// Validate rejects configurations that cannot detect anything (or would
// suspect everything): a non-positive period, a suspicion timeout below the
// renewal interval, a negative quorum.
func (c Config) Validate() error {
	if c.HeartbeatPeriod <= 0 {
		return fmt.Errorf("member: heartbeat period must be positive (got %g)", c.HeartbeatPeriod)
	}
	if c.SuspectTimeout != 0 && c.SuspectTimeout < c.HeartbeatPeriod {
		return fmt.Errorf("member: suspicion timeout %g is below the heartbeat period %g; every suspicion would expire before a probe round could refute it",
			c.SuspectTimeout, c.HeartbeatPeriod)
	}
	if c.Quorum < 0 {
		return fmt.Errorf("member: quorum must be non-negative (got %d)", c.Quorum)
	}
	return nil
}

// State is an observer's view of one target.
type State int

const (
	// Alive: the target answers (or nothing has implicated it).
	Alive State = iota
	// Suspect: the target failed a probe round; the suspicion clock is
	// running and the target may still refute it.
	Suspect
	// Dead: the observer holds the target's incarnation dead. Final for
	// that incarnation — only evidence from a higher incarnation (the node
	// rejoining) readmits it.
	Dead
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Stats aggregates a detector's deterministic counters; two runs of the
// same workload under the same fault plan produce identical values on both
// engines.
type Stats struct {
	HeartbeatsSent      uint64 // membership messages handed to the interconnect
	HeartbeatsDelivered uint64 // membership messages admitted by the receiver
	HeartbeatsFenced    uint64 // stale-incarnation messages dropped by a view
	Suspicions          uint64 // alive -> suspect transitions
	Readmissions        uint64 // suspect/dead -> alive transitions
	FalseSuspicions     uint64 // readmissions that refuted a declared death
	Deaths              uint64 // death declarations (first observer per incarnation)

	Probes           uint64 // direct probes sent
	ProbeTimeouts    uint64 // direct probes that escalated to witnesses
	IndirectProbes   uint64 // ping-req messages sent to witnesses
	GossipUpdates    uint64 // piggybacked membership updates sent
	Refutations      uint64 // self-suspicions refuted with a bumped epoch
	Rejoins          uint64 // nodes that outlived their own death verdict and rejoined
	DeferredVerdicts uint64 // death verdicts parked for lack of quorum
	VerdictRechecks  uint64 // deadlines short of confirmation quorum re-armed with backoff
}

// DeathRecord is one death declaration, for detection-latency studies.
type DeathRecord struct {
	Node     int     // the declared node
	Inc      uint64  // the incarnation declared dead
	At       float64 // simulated declaration time
	Observer int     // the observer that reached the verdict first
}

// mix64 is a splitmix64-style finalizer: the deterministic pseudo-random
// stream behind probe rotation and witness selection (the same construction
// internal/fault uses for message fates).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
