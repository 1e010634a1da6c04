package ckpt

import (
	"heterodc/internal/kernel"
	"heterodc/internal/link"
)

// Stats are the checkpoint service's cumulative counters.
type Stats struct {
	// ImagesWritten counts encoded checkpoint images.
	ImagesWritten int
	// BytesWritten sums their encoded sizes.
	BytesWritten int64
	// CaptureSeconds sums modelled stop-the-world capture latency.
	CaptureSeconds float64
	// Restores counts crash recoveries from an image.
	Restores int
	// WorkReplayedSeconds sums the simulated time between each restored
	// image's capture and the crash that forced the restore — the work a
	// shorter interval would have saved.
	WorkReplayedSeconds float64
	// StaleLossEvents counts loss notifications for incarnations the
	// manager had already superseded — a duplicate or late death verdict
	// must not double-restore a job (the split-brain backstop).
	StaleLossEvents int
}

// RestoreRecord is one executed restore, for placement-invariant audits
// (the partition experiment asserts no restore ever lands on a minority
// side).
type RestoreRecord struct {
	OldPid, NewPid int
	LostNode, Node int
	At             float64
}

// job tracks one logical job across its incarnations.
type job struct {
	img        *link.Image
	pol        kernel.CkptPolicy
	cur        *kernel.Process
	image      []byte // latest encoded checkpoint image
	capturedAt float64
	restores   int
}

// Manager runs checkpoint-based crash recovery on a cluster: it encodes
// every capture of a tracked process into the portable image format,
// retains the latest image per job, and — when a permanent node crash
// strands a tracked process — decodes that image and restores a fresh
// incarnation on a surviving node.
type Manager struct {
	cl *kernel.Cluster
	// jobs maps every incarnation's pid to its job.
	jobs     map[int]*job
	stats    Stats
	restores []RestoreRecord

	// Place picks the restore node given the lost node; nil uses
	// least-loaded placement over live nodes. Return -1 to give up.
	Place func(cl *kernel.Cluster, lostNode int) int
	// OnRestore observes each recovery (the scheduler re-homes its
	// bookkeeping here).
	OnRestore func(old, cur *kernel.Process, node int)
}

// NewManager installs a manager on the cluster, chaining with any
// previously installed checkpoint/loss observers.
func NewManager(cl *kernel.Cluster) *Manager {
	m := &Manager{cl: cl, jobs: make(map[int]*job)}
	prevCk := cl.OnCheckpoint
	cl.OnCheckpoint = func(ev kernel.CheckpointEvent) {
		m.onCheckpoint(ev)
		if prevCk != nil {
			prevCk(ev)
		}
	}
	prevLost := cl.OnProcessLost
	cl.OnProcessLost = func(p *kernel.Process, node int) {
		m.onLost(p, node)
		if prevLost != nil {
			prevLost(p, node)
		}
	}
	return m
}

// Track enrolls p: it is checkpointed under pol and restored from its
// latest image if a permanent crash strands it. img must be the image p was
// spawned from (the restore reuses its code and stackmaps).
func (m *Manager) Track(p *kernel.Process, img *link.Image, pol kernel.CkptPolicy) {
	m.cl.SetCheckpointPolicy(p, pol)
	m.jobs[p.Pid] = &job{img: img, pol: pol, cur: p}
}

// Current resolves a (possibly dead) incarnation to the job's live one.
func (m *Manager) Current(p *kernel.Process) *kernel.Process {
	if j := m.jobs[p.Pid]; j != nil {
		return j.cur
	}
	return p
}

// LatestImage returns the job's most recent encoded image (nil before the
// first capture).
func (m *Manager) LatestImage(p *kernel.Process) []byte {
	if j := m.jobs[p.Pid]; j != nil {
		return j.image
	}
	return nil
}

// Stats returns the cumulative counters.
func (m *Manager) Stats() Stats { return m.stats }

// Restores returns every executed restore in order.
func (m *Manager) Restores() []RestoreRecord { return m.restores }

func (m *Manager) onCheckpoint(ev kernel.CheckpointEvent) {
	j := m.jobs[ev.Proc.Pid]
	if j == nil {
		return
	}
	data := Encode(ev.Snap)
	j.image = data
	j.capturedAt = ev.Snap.When
	m.stats.ImagesWritten++
	m.stats.BytesWritten += int64(len(data))
	m.stats.CaptureSeconds += ev.Seconds
}

func (m *Manager) onLost(p *kernel.Process, node int) {
	j := m.jobs[p.Pid]
	if j == nil || j.image == nil {
		return
	}
	if j.cur != p {
		// A duplicate death verdict (or a verdict that outlived a restore)
		// names an incarnation this job already replaced: restoring again
		// would run the job twice.
		m.stats.StaleLossEvents++
		return
	}
	snap, err := Decode(j.image)
	if err != nil {
		return
	}
	place := m.Place
	if place == nil {
		place = LeastLoadedNode
	}
	dst := place(m.cl, node)
	if dst < 0 {
		return
	}
	np, err := m.cl.RestoreProcess(j.img, snap, dst)
	if err != nil {
		return
	}
	j.cur = np
	j.restores++
	m.jobs[np.Pid] = j
	m.stats.Restores++
	m.stats.WorkReplayedSeconds += m.cl.Time() - j.capturedAt
	m.restores = append(m.restores, RestoreRecord{
		OldPid: p.Pid, NewPid: np.Pid, LostNode: node, Node: dst, At: m.cl.Time(),
	})
	// Keep checkpointing the new incarnation.
	m.cl.SetCheckpointPolicy(np, j.pol)
	if m.OnRestore != nil {
		m.OnRestore(p, np, dst)
	}
}

// LeastLoadedNode is the default restore placement: the available node with
// the fewest runnable threads, or -1 when no node qualifies. Availability is
// the failure detector's verdict when one is installed (a suspected node is
// skipped even if it is actually alive) and the oracle down-bit otherwise;
// the lost node fails both and skips itself.
func LeastLoadedNode(cl *kernel.Cluster, _ int) int {
	best, bestLoad := -1, int(^uint(0)>>1)
	for i, k := range cl.Kernels {
		if cl.NodeUnavailable(i) || cl.NodeDown(i) {
			continue
		}
		if load := k.RunnableLoad(); load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}
