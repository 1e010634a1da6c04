package kernel

import (
	"errors"
	"fmt"
	"sort"

	"heterodc/internal/dsm"
	"heterodc/internal/isa"
	"heterodc/internal/link"
	"heterodc/internal/mem"
	"heterodc/internal/sys"
	"heterodc/internal/xform"
)

// The checkpoint service quiesces a process at migration points: it is only
// there that the compiler's stackmaps fully describe every thread's frames,
// which is what makes the captured image ISA-neutral (the paper's
// Tᵢ = ⟨Lᵢ, Sᵢ, Rᵢ⟩ state model — everything in the common layout P is
// identity-mapped; only stacks and registers need per-ISA rewriting, and
// that rewriting is deferred to restore time via xform.Transform).
//
// The quiesce protocol reuses the migration-request plumbing:
// __migrate_check computes target = flag - 1, so raising the vDSO flag to
// ckptFlagRequest makes the next executed migration point trap into
// SysMigrate with target CkptMigrateTarget, where the kernel parks the
// thread instead of moving it. When every live thread is parked (or blocked
// in join — a state equally described by the stackmaps, as the join syscall
// is itself a recorded call site), the image is captured.

// CkptMigrateTarget is the reserved migrate() target the checkpoint service
// claims. It is recognised only by the kernel's syscall dispatch; user-level
// APIs (RequestMigration) still reject it.
const CkptMigrateTarget = -2

// ckptFlagRequest is the vDSO flag value that traps into CkptMigrateTarget.
const ckptFlagRequest = int64(CkptMigrateTarget) + 1

// ErrNodeLost marks a process killed by a permanent node crash that
// stranded its threads or exclusive pages. The checkpoint service
// distinguishes it from application failures when deciding to restore.
var ErrNodeLost = errors.New("kernel: node permanently lost")

// Checkpoint capture/restore cost model: a fixed service setup plus a
// memory-bandwidth term over the image payload, in the spirit of the DSM
// service costs (the gather is local copying; pages were pulled consistent
// by ownership, not transferred).
const (
	ckptBaseSeconds       = 120e-6
	ckptBytesPerSecond    = 2.5e9
	ckptPerThreadSeconds  = 8e-6
	restoreBaseSeconds    = 150e-6
	restoreBytesPerSecond = 2.0e9
)

// CkptPolicy is a per-process periodic checkpoint policy: checkpoint every
// N executed migration points, every T simulated seconds, or both
// (whichever fires first). A zero policy never fires on its own;
// RequestCheckpoint still forces one-shot captures.
type CkptPolicy struct {
	EveryPoints  uint64
	EverySeconds float64
}

func (pol CkptPolicy) enabled() bool { return pol.EveryPoints > 0 || pol.EverySeconds > 0 }

// ckptState is the kernel-side policy state of a checkpointed process.
type ckptState struct {
	pol CkptPolicy
	// points counts executed migration points across all threads.
	points     uint64
	lastPoints uint64
	lastAt     float64
	// pending marks an in-progress quiesce: threads park as they reach
	// their next migration point.
	pending bool
}

// SetCheckpointPolicy enables (or, with a zero policy, merely arms) the
// checkpoint service for p. The interval clock starts now.
func (cl *Cluster) SetCheckpointPolicy(p *Process, pol CkptPolicy) {
	if p.ckpt == nil {
		p.ckpt = &ckptState{lastAt: cl.Time()}
	}
	p.ckpt.pol = pol
}

// RequestCheckpoint forces a one-shot capture of p at its next quiesce
// point, independent of the periodic policy.
func (cl *Cluster) RequestCheckpoint(p *Process) error {
	if p.exited {
		return fmt.Errorf("kernel: pid %d already exited", p.Pid)
	}
	if p.ckpt == nil {
		p.ckpt = &ckptState{lastAt: cl.Time()}
	}
	if p.ckpt.pending {
		return nil
	}
	p.ckpt.pending = true
	cl.raiseCkptFlags(p)
	return nil
}

// CheckpointEvent reports one completed capture to the cluster's observer
// (the ckpt.Manager encodes and retains the snapshot).
type CheckpointEvent struct {
	Time float64
	Proc *Process
	Snap *Snapshot
	// Seconds is the modelled capture latency (the stop-the-world window
	// the parked threads sat out).
	Seconds float64
}

// ThreadStatus classifies a thread inside a snapshot.
type ThreadStatus uint8

const (
	// ThreadAtPoint: parked at a migration point (resumes past it).
	ThreadAtPoint ThreadStatus = iota
	// ThreadBlockedJoin: suspended in join(JoinTid).
	ThreadBlockedJoin
	// ThreadExited: finished; only ExitVal survives (joiners may still
	// collect it after restore).
	ThreadExited
)

// Snapshot is a whole-process checkpoint in memory form: the ISA-neutral
// portion (pages, kernel service state) verbatim, plus per-thread register
// files and PCs tagged with the ISA they were captured on. ckpt.Encode
// serialises it into the portable on-disk image.
type Snapshot struct {
	ImgName string
	Pid     int
	When    float64

	Brk                 uint64
	RNG                 uint64
	NextTid             int64
	NextFd              int64
	SerializedMigration bool
	EagerPageMigration  bool

	// Output is everything the process wrote to fd 1/2 so far; restoring it
	// keeps the restored run's cumulative output byte-identical.
	Output []byte

	Pages   []PageRecord
	Threads []ThreadRecord
	Files   []FileRecord
	FDs     []FDRecord
}

// PageRecord is one DSM-owned page, gathered from its owner's copy.
type PageRecord struct {
	Index uint64
	Data  []byte // PageSize bytes
}

// ThreadRecord is one thread's captured state. Regs/PC are meaningful for
// non-exited threads and are expressed in Arch's register file; restore on
// a different ISA rewrites them (and the thread's stack) via
// xform.Transform.
type ThreadRecord struct {
	Tid        int64
	Status     ThreadStatus
	Arch       isa.Arch
	CurHalf    int
	JoinTid    int64
	ExitVal    int64
	PC         uint64
	Regs       xform.RegState
	Migrations int
}

// FileRecord is one container-filesystem file.
type FileRecord struct {
	Name string
	Data []byte
}

// FDRecord is one open descriptor (position into a filesystem file).
type FDRecord struct {
	FD   int64
	Path string
	Pos  int64
}

// ApproxBytes estimates the encoded image size (the latency model's input).
func (s *Snapshot) ApproxBytes() int64 {
	n := int64(128)
	for _, pg := range s.Pages {
		n += 16 + int64(len(pg.Data))
	}
	n += int64(len(s.Threads)) * (64 + 32*8 + 32*8)
	n += int64(len(s.Output))
	for _, f := range s.Files {
		n += 32 + int64(len(f.Name)) + int64(len(f.Data))
	}
	n += int64(len(s.FDs)) * 48
	return n
}

// CheckpointLatency models the capture's stop-the-world wall time.
func CheckpointLatency(s *Snapshot) float64 {
	return ckptBaseSeconds +
		float64(s.ApproxBytes())/ckptBytesPerSecond +
		ckptPerThreadSeconds*float64(len(s.Threads))
}

// RestoreLatency models the restore's wall time before threads run
// (excluding per-thread stack transformation, charged separately).
func RestoreLatency(s *Snapshot) float64 {
	return restoreBaseSeconds + float64(s.ApproxBytes())/restoreBytesPerSecond
}

// pointTick is the kernel-owned migration-point hook: it advances the
// checkpointed process's policy clock and starts or sustains a quiesce.
// It runs on entry to __migrate_check, so a flag raised here is observed by
// this very point's flag load.
func (k *Kernel) pointTick(cs *coreSlot) {
	t := cs.thr
	if t == nil {
		return
	}
	st := t.Proc.ckpt
	if st == nil {
		return
	}
	st.points++
	if st.pending {
		// Re-arm on this thread's current node: threads that migrated or
		// spawned after the broadcast still have to park.
		k.cluster.ensureCkptFlag(t.Proc, t)
		return
	}
	if !st.pol.enabled() {
		return
	}
	due := (st.pol.EveryPoints > 0 && st.points-st.lastPoints >= st.pol.EveryPoints) ||
		(st.pol.EverySeconds > 0 && k.now()-st.lastAt >= st.pol.EverySeconds)
	if !due {
		return
	}
	st.pending = true
	k.cluster.raiseCkptFlags(t.Proc)
}

// raiseCkptFlags raises the checkpoint request for every live thread.
func (cl *Cluster) raiseCkptFlags(p *Process) {
	for _, t := range p.threads {
		if t.State == Exited || t.State == CkptParked {
			continue
		}
		cl.ensureCkptFlag(p, t)
	}
}

// ensureCkptFlag raises the checkpoint request on t's hosting node unless
// another request (a real migration) is already posted there — the
// migration wins and the thread re-arms at its next point on the
// destination.
func (cl *Cluster) ensureCkptFlag(p *Process, t *Thread) {
	k := cl.Kernels[t.Node]
	cur, err := p.Mems[k.Node].ReadU64(sys.MigrationFlagAddr(t.Tid))
	if err == nil && cur == 0 {
		k.vdsoSetFlag(p, t.Tid, ckptFlagRequest)
	}
}

// checkpointPark handles the SysMigrate trap with the checkpoint sentinel
// target: the thread is quiesced at its migration point. Returns true when
// the thread left the core.
func (k *Kernel) checkpointPark(cs *coreSlot) bool {
	t := cs.thr
	p := t.Proc
	k.vdsoSetFlag(p, t.Tid, 0)
	// The migrate() result must be saved before detach: the parked thread's
	// register file is what the snapshot captures, and a restored (or
	// released) thread resumes as if migrate() returned 0.
	cs.core.SetSyscallResult(0)
	st := p.ckpt
	if st == nil || !st.pending {
		// Stale request (capture aborted by a crash); keep running.
		return false
	}
	k.detach(cs)
	t.State = CkptParked
	k.ckptMaybeCapture(p)
	return true
}

// ckptMaybeCapture captures the image once every live thread is quiesced:
// parked at a migration point or blocked in join. Any thread still Ready,
// Running, Sleeping or InFlight will reach a parkable state on its own
// (migration points pepper all loops, and in-flight threads land and run).
func (k *Kernel) ckptMaybeCapture(p *Process) {
	st := p.ckpt
	if st == nil || !st.pending || p.exited {
		return
	}
	parked := 0
	for _, t := range p.threads {
		switch t.State {
		case Exited, BlockedJoin:
		case CkptParked:
			parked++
		default:
			return
		}
	}
	if parked == 0 {
		return
	}
	st.pending = false
	st.lastPoints = st.points
	st.lastAt = k.now()
	snap, err := k.cluster.snapshotProcess(p, k.now())
	if err != nil {
		k.cluster.tracefNode(k.Node, k.now(), "ckpt-skip", "pid %d: %v", p.Pid, err)
		k.releaseParked(p, 0)
		return
	}
	lat := CheckpointLatency(snap)
	// The interval clock restarts at the END of the stop-the-world window:
	// a capture latency above the interval must not re-trigger immediately.
	st.lastAt = k.now() + lat
	k.ServiceSeconds += lat
	k.cluster.tracefNode(k.Node, k.now(), "ckpt", "pid %d: %d pages, %d threads, ~%d bytes, %.0fµs stop-the-world",
		p.Pid, len(snap.Pages), len(snap.Threads), snap.ApproxBytes(), lat*1e6)
	k.releaseParked(p, lat)
	if k.cluster.OnCheckpoint != nil {
		// Serialised across sharing groups: observers see one event at a time.
		k.cluster.cbMu.Lock()
		k.cluster.OnCheckpoint(CheckpointEvent{Time: k.now(), Proc: p, Snap: snap, Seconds: lat})
		k.cluster.cbMu.Unlock()
	}
}

// parkedThreads returns p's CkptParked threads sorted by tid, so releases
// enqueue in a map-order-independent, reproducible order.
func parkedThreads(p *Process) []*Thread {
	var ts []*Thread
	for _, t := range p.threads {
		if t.State == CkptParked {
			ts = append(ts, t)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Tid < ts[j].Tid })
	return ts
}

// releaseParked resumes every parked thread, after lat seconds of capture
// stop-the-world (0 releases immediately).
func (k *Kernel) releaseParked(p *Process, lat float64) {
	for _, t := range parkedThreads(p) {
		kh := k.cluster.Kernels[t.Node]
		if lat > 0 {
			kh.sleep(t, kh.now()+lat)
		} else {
			kh.enqueue(t)
		}
	}
}

// abortCheckpoints cancels any pending quiesce touched by a node transition:
// parked threads resume, and the policy clock restarts (the service retries
// a full interval later rather than capturing across the disruption). Only
// processes whose sharing set contains node are affected, so the abort stays
// group-local under the parallel engine.
func (cl *Cluster) abortCheckpoints(now float64, node int) {
	for _, p := range cl.procs {
		st := p.ckpt
		if p.exited || st == nil || !st.pending {
			continue
		}
		inSet := false
		fp, fs := cl.footprint(p)
		for _, n := range fp {
			if n == node {
				inSet = true
				break
			}
		}
		fs.release()
		if !inSet {
			continue
		}
		st.pending = false
		st.lastPoints = st.points
		st.lastAt = now
		released := 0
		for _, t := range parkedThreads(p) {
			cl.Kernels[t.Node].enqueue(t)
			released++
		}
		cl.tracefNode(node, now, "ckpt-skip", "pid %d: capture aborted by node transition (%d threads released)", p.Pid, released)
	}
}

// snapshotProcess gathers p's whole state DSM-consistently. All threads are
// quiesced, so no coherence traffic is in flight: each owned page's owner
// copy is the authoritative content and is read without faulting.
func (cl *Cluster) snapshotProcess(p *Process, at float64) (*Snapshot, error) {
	s := &Snapshot{
		ImgName:             p.Img.Name,
		Pid:                 p.Pid,
		When:                at,
		Brk:                 p.brk,
		RNG:                 p.rng,
		NextTid:             p.nextTid,
		NextFd:              p.nextFd,
		SerializedMigration: p.serializedMigration,
		EagerPageMigration:  p.eagerPageMigration,
		Output:              append([]byte(nil), p.Out.Bytes()...),
	}

	pages := p.Space.OwnedPages()
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, pg := range pages {
		owner := p.Space.Owner(pg)
		if owner < 0 || owner >= len(cl.Kernels) {
			return nil, fmt.Errorf("page %#x has no owner", pg<<mem.PageShift)
		}
		if cl.Kernels[owner].down {
			return nil, fmt.Errorf("page %#x owner node %d is down", pg<<mem.PageShift, owner)
		}
		rec := PageRecord{Index: pg, Data: make([]byte, mem.PageSize)}
		if src := p.Mems[owner].Page(pg << mem.PageShift); src != nil {
			copy(rec.Data, src[:])
		}
		s.Pages = append(s.Pages, rec)
	}

	tids := make([]int64, 0, len(p.threads))
	for tid := range p.threads {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		t := p.threads[tid]
		rec := ThreadRecord{Tid: t.Tid, CurHalf: t.CurHalf, Migrations: t.Migrations}
		switch t.State {
		case Exited:
			rec.Status = ThreadExited
			rec.ExitVal = t.exitVal
		case CkptParked:
			rec.Status = ThreadAtPoint
			rec.Arch = cl.Kernels[t.Node].Arch
			rec.Regs = t.Regs
			rec.PC = t.PC
		case BlockedJoin:
			rec.Status = ThreadBlockedJoin
			rec.JoinTid = t.joinTid
			rec.Arch = cl.Kernels[t.Node].Arch
			rec.Regs = t.Regs
			rec.PC = t.PC
		default:
			return nil, fmt.Errorf("thread %d not quiesced (state %d)", t.Tid, t.State)
		}
		s.Threads = append(s.Threads, rec)
	}

	for _, name := range p.FS.Names() {
		data := p.FS.ReadFile(name)
		s.Files = append(s.Files, FileRecord{Name: name, Data: append([]byte(nil), data...)})
	}
	fdNums := make([]int64, 0, len(p.fds))
	for fd := range p.fds {
		fdNums = append(fdNums, fd)
	}
	sort.Slice(fdNums, func(i, j int) bool { return fdNums[i] < fdNums[j] })
	for _, fd := range fdNums {
		e := p.fds[fd]
		s.FDs = append(s.FDs, FDRecord{FD: fd, Path: e.file.name, Pos: e.pos})
	}
	return s, nil
}

// RestoreProcess instantiates a snapshot as a new process incarnation on
// node, which may run either ISA: pages, filesystem and kernel service
// state install verbatim (they live in the common layout P), while each
// live thread's stack and registers are rewritten to the destination ABI by
// xform.Transform unless the ISA matches (the identity fast path). The
// restored run's subsequent output is byte-identical to the original's.
func (cl *Cluster) RestoreProcess(img *link.Image, s *Snapshot, node int) (*Process, error) {
	if node < 0 || node >= len(cl.Kernels) {
		return nil, fmt.Errorf("kernel: no node %d", node)
	}
	kd := cl.Kernels[node]
	if kd.down {
		return nil, fmt.Errorf("kernel: restore target node %d is down", node)
	}
	if img.Name != s.ImgName {
		return nil, fmt.Errorf("kernel: image %q does not match snapshot of %q", img.Name, s.ImgName)
	}
	for _, pr := range s.Pages {
		if len(pr.Data) != mem.PageSize {
			return nil, fmt.Errorf("kernel: snapshot page %#x carries %d bytes, want %d", pr.Index, len(pr.Data), mem.PageSize)
		}
	}

	cl.nextPid++
	p := &Process{
		Pid:                 cl.nextPid,
		Img:                 img,
		Origin:              node,
		Space:               dsm.NewSpace(len(cl.Kernels)),
		Mems:                make([]*mem.Memory, len(cl.Kernels)),
		brk:                 s.Brk,
		threads:             make(map[int64]*Thread),
		nextTid:             s.NextTid,
		FS:                  NewFS(),
		rng:                 s.RNG,
		fds:                 make(map[int64]*fdEntry),
		nextFd:              s.NextFd,
		serializedMigration: s.SerializedMigration,
		eagerPageMigration:  s.EagerPageMigration,
		pendingMig:          make(map[int64]int),
	}
	p.Out.Write(s.Output)
	for i := range p.Mems {
		p.Mems[i] = mem.NewMemory()
		p.Mems[i].EnsurePage(mem.VDSOBase)
	}
	for _, f := range s.Files {
		p.FS.AddFile(f.Name, f.Data)
	}
	for _, fd := range s.FDs {
		f := p.FS.files[fd.Path]
		if f == nil {
			f = &fsFile{name: fd.Path}
			p.FS.files[fd.Path] = f
		}
		p.fds[fd.FD] = &fdEntry{file: f, pos: fd.Pos}
	}
	// Every page lands Exclusive on the restore node, exactly like the
	// loader seeding a fresh image; other nodes pull on demand.
	for _, pr := range s.Pages {
		base := pr.Index << mem.PageShift
		p.Mems[node].InstallPage(base, (*mem.Page)(pr.Data))
		p.Space.Seed(node, pr.Index)
	}

	// Pass 1: rebuild threads. Cross-ISA threads are transformed into the
	// opposite stack half (the two-halves scheme, as in live migration).
	var xlat float64
	for i := range s.Threads {
		rec := &s.Threads[i]
		lo, _ := mem.ThreadStackWindow(int(rec.Tid))
		t := &Thread{
			Tid:        rec.Tid,
			Proc:       p,
			Node:       node,
			StackLo:    lo,
			CurHalf:    rec.CurHalf,
			Migrations: rec.Migrations,
		}
		p.threads[rec.Tid] = t
		if rec.Status == ThreadExited {
			t.State = Exited
			t.exitVal = rec.ExitVal
			continue
		}
		p.liveThreads++
		if rec.Arch == kd.Arch {
			t.Regs = rec.Regs
			t.PC = rec.PC
			continue
		}
		if !img.Aligned {
			return nil, fmt.Errorf("kernel: cross-ISA restore of unaligned image %q", img.Name)
		}
		srcLo := lo + uint64(rec.CurHalf)*mem.StackHalf
		dstLo := lo + uint64(1-rec.CurHalf)*mem.StackHalf
		out, faultLat, err := kd.transform(p, xform.Input{
			SrcProg:    img.Prog(rec.Arch),
			DstProg:    img.Prog(kd.Arch),
			Regs:       rec.Regs,
			PC:         rec.PC,
			SrcStackLo: srcLo,
			SrcStackHi: srcLo + mem.StackHalf,
			DstStackLo: dstLo,
			DstStackHi: dstLo + mem.StackHalf,
		})
		if err != nil {
			return nil, fmt.Errorf("kernel: restore transform tid %d: %w", rec.Tid, err)
		}
		t.Regs = out.Regs
		t.PC = out.PC
		t.CurHalf = 1 - rec.CurHalf
		xlat += XformLatency(kd.Arch, out.Stats) + faultLat
	}

	// Pass 2: re-link joins and schedule. A join whose target already
	// exited at capture time (its wake was in flight) completes now.
	lat := RestoreLatency(s) + xlat
	wakeAt := kd.now() + lat
	restored := 0
	for i := range s.Threads {
		rec := &s.Threads[i]
		if rec.Status == ThreadExited {
			continue
		}
		t := p.threads[rec.Tid]
		if rec.Status == ThreadBlockedJoin {
			target := p.threads[rec.JoinTid]
			if target != nil && target.State != Exited {
				t.State = BlockedJoin
				t.joinTid = rec.JoinTid
				target.joiners = append(target.joiners, t)
				continue
			}
			val := int64(-1)
			if target != nil {
				val = target.exitVal
			}
			t.Regs.I[kd.Desc.IntRet] = val
		}
		kd.sleep(t, wakeAt)
		restored++
	}
	kd.ServiceSeconds += lat
	cl.procs = append(cl.procs, p)
	cl.tracefNode(kd.Node, kd.now(), "restore", "pid %d from pid %d image (t=%.6fs): %d pages, %d/%d threads live on node %d (%s), %.0fµs",
		p.Pid, s.Pid, s.When, len(s.Pages), restored, len(s.Threads), node, kd.Arch, lat*1e6)
	return p, nil
}

// CheckpointPoints returns the number of migration points the checkpointed
// process has executed (diagnostics).
func (p *Process) CheckpointPoints() uint64 {
	if p.ckpt == nil {
		return 0
	}
	return p.ckpt.points
}
