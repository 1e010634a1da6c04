package kernel

import (
	"bytes"
	"fmt"

	"heterodc/internal/dsm"
	"heterodc/internal/link"
	"heterodc/internal/mem"
	"heterodc/internal/sys"
	"heterodc/internal/xform"
)

// ThreadState is a thread's scheduling state.
type ThreadState int

const (
	// Ready: runnable, waiting for a core.
	Ready ThreadState = iota
	// Running: on a core.
	Running
	// Sleeping: blocked until Thread.wakeAt.
	Sleeping
	// BlockedJoin: waiting for another thread to exit.
	BlockedJoin
	// InFlight: migrating between kernels.
	InFlight
	// Exited: done.
	Exited
	// CkptParked: quiesced at a migration point for a process checkpoint;
	// released when the capture completes.
	CkptParked
)

// Thread is one kernel-visible thread of a process. Its user-space state
// (registers, PC) lives here while the thread is not on a core.
type Thread struct {
	Tid  int64
	Proc *Process
	// Node is the kernel currently hosting the thread.
	Node int

	State ThreadState

	Regs xform.RegState
	PC   uint64

	// StackLo is the base of the thread's stack window; CurHalf selects the
	// active half (the two-halves transformation scheme).
	StackLo uint64
	CurHalf int

	// wakeAt is the sleep deadline when State == Sleeping.
	wakeAt float64
	// inflightFrom is the source kernel of the migration in progress when
	// State == InFlight. The sharing-set computation needs it: an eager
	// migration can leave no pages behind, yet a crash of the destination
	// rehomes the thread by writing the source kernel's run queue.
	inflightFrom int
	// joiners are woken when this thread exits.
	joiners []*Thread
	// joinTid is the thread being joined when State == BlockedJoin (the
	// checkpoint service re-links the dependency at restore).
	joinTid int64
	exitVal int64
	// sliceStart marks when the thread was dispatched, for timeslicing.
	sliceStart float64

	// Migrations counts completed cross-kernel migrations.
	Migrations int

	// hop is the hand-off record of the thread's latest migration, the
	// payload its migration message carries (see migratePayload).
	hop migratePayload
}

// StackHalfBounds returns [lo, hi) of the currently active stack half.
func (t *Thread) StackHalfBounds() (uint64, uint64) {
	lo := t.StackLo + uint64(t.CurHalf)*mem.StackHalf
	return lo, lo + mem.StackHalf
}

// OtherHalfBounds returns [lo, hi) of the inactive half.
func (t *Thread) OtherHalfBounds() (uint64, uint64) {
	lo := t.StackLo + uint64(1-t.CurHalf)*mem.StackHalf
	return lo, lo + mem.StackHalf
}

// Process is one heterogeneous OS-container's application: a multi-ISA
// binary plus an address space replicated across kernels by the hDSM
// service, plus the per-process state of each distributed kernel service.
type Process struct {
	Pid int
	Img *link.Image
	// Origin is the kernel the process was created on (the authority for
	// its filesystem namespace and break).
	Origin int

	// Space is the hDSM coherence directory; Mems[node] is each kernel's
	// local view of the address space.
	Space *dsm.Space
	Mems  []*mem.Memory

	brk uint64

	threads map[int64]*Thread
	nextTid int64

	// Out collects fd-1 output (the container's console).
	Out bytes.Buffer

	FS *FS

	rng uint64

	fds    map[int64]*fdEntry
	nextFd int64

	exited   bool
	exitCode int64
	exitTime float64
	failErr  error

	// serializedMigration selects the whole-state serialization baseline.
	serializedMigration bool
	// eagerPageMigration moves every page with the thread (stop-the-world
	// copy) instead of letting the DSM pull on demand — the ablation for
	// the paper's no-stop-the-world design choice.
	eagerPageMigration bool

	// liveThreads counts non-exited threads.
	liveThreads int

	// pendingMig maps tid -> requested migration target for vDSO-flagged
	// migrations that have not yet been consumed at a migration point. The
	// sharing-set computation includes these targets so a requested
	// destination joins the process's group before the thread can move.
	pendingMig map[int64]int

	// ckpt is the per-process checkpoint policy state, nil when the process
	// is not checkpointed.
	ckpt *ckptState
}

// Err returns the fatal error that killed the process, if any.
func (p *Process) Err() error { return p.failErr }

// Exited reports whether the process has terminated, and its exit code.
func (p *Process) Exited() (bool, int64) { return p.exited, p.exitCode }

// ExitTime returns the simulated instant the process terminated (0 while
// live). Open-loop SLO accounting uses it so a job's sojourn time is the
// kernel's exit instant, not whenever a polling driver noticed — the
// engines notice at different granularities, the kernel exits at the same
// one.
func (p *Process) ExitTime() float64 { return p.exitTime }

// Output returns everything written to fd 1.
func (p *Process) Output() []byte { return p.Out.Bytes() }

// Thread returns the thread with the given tid, or nil.
func (p *Process) Thread(tid int64) *Thread { return p.threads[tid] }

// Threads returns the number of live threads.
func (p *Process) Threads() int { return p.liveThreads }

// newProcess loads img as a new process with its main thread on node.
// Unaligned images are permitted (the Table 1 baseline runs natively); the
// migration service rejects them at migration time.
func (cl *Cluster) newProcess(img *link.Image, node int, fs *FS) (*Process, error) {
	cl.nextPid++
	p := &Process{
		Pid:     cl.nextPid,
		Img:     img,
		Origin:  node,
		Space:   dsm.NewSpace(len(cl.Kernels)),
		Mems:    make([]*mem.Memory, len(cl.Kernels)),
		brk:     mem.HeapBase,
		threads: make(map[int64]*Thread),
		FS:      fs,
		rng:     0x9e3779b97f4a7c15,

		pendingMig: make(map[int64]int),
	}
	if p.FS == nil {
		p.FS = NewFS()
	}
	for i := range p.Mems {
		p.Mems[i] = mem.NewMemory()
	}

	// Install the data segments on the origin node and seed DSM ownership
	// (the heterogeneous binary loader; text is aliased per ISA and needs no
	// pages, as instruction fetch never reaches the DSM).
	arch := cl.Kernels[node].Arch
	for _, seg := range img.Data[arch] {
		end := seg.Addr + uint64(seg.Size)
		for a := mem.PageBase(seg.Addr); a < end; a += mem.PageSize {
			p.Mems[node].EnsurePage(a)
			p.Space.Seed(node, mem.PageIndex(a))
		}
		if len(seg.Bytes) > 0 {
			p.Mems[node].WriteBytes(seg.Addr, seg.Bytes)
		}
	}

	// vDSO page: present and writable on every node, excluded from DSM (it
	// is the explicit user/kernel communication channel).
	for i := range p.Mems {
		p.Mems[i].EnsurePage(mem.VDSOBase)
	}
	return p, nil
}

// newThread creates a thread at entry with up to two integer arguments,
// ready on node. The caller must hold a consistent tid supply.
func (p *Process) newThread(cl *Cluster, node int, entry string, args ...int64) (*Thread, error) {
	tid := p.nextTid
	p.nextTid++
	if tid >= sys.MaxVDSOThreads || tid >= mem.MaxThreads {
		return nil, fmt.Errorf("kernel: too many threads (%d)", tid)
	}
	lo, _ := mem.ThreadStackWindow(int(tid))
	t := &Thread{
		Tid:     tid,
		Proc:    p,
		Node:    node,
		State:   Ready,
		StackLo: lo,
		CurHalf: 0,
	}

	k := cl.Kernels[node]
	desc := k.Desc
	img := p.Img
	entryAddr, ok := img.FuncAddr[k.Arch][entry]
	if !ok {
		return nil, fmt.Errorf("kernel: no entry symbol %q", entry)
	}

	// Initial stack: top of half 0, with the zero return-address sentinel
	// installed per the ISA's discipline.
	hl, hh := t.StackHalfBounds()
	_ = hl
	sp := (hh - 64) &^ 15
	km := &kmem{k: k, p: p}
	if desc.RetAddrOnStack {
		sp -= 8
		if err := km.WriteU64(sp, 0); err != nil {
			return nil, err
		}
	} else {
		t.Regs.I[desc.LR] = 0
	}
	t.Regs.I[desc.SP] = int64(sp)
	t.Regs.I[desc.FP] = 0
	for i, a := range args {
		if i >= len(desc.IntArgRegs) {
			return nil, fmt.Errorf("kernel: too many thread args")
		}
		t.Regs.I[desc.IntArgRegs[i]] = a
	}
	t.PC = entryAddr

	p.threads[tid] = t
	p.liveThreads++
	k.enqueue(t)
	return t, nil
}

// SetSerializedMigration switches the process to the PadMig-style baseline:
// migrations serialize and eagerly transfer the whole application state
// instead of transforming the stack and pulling pages on demand.
func (p *Process) SetSerializedMigration(on bool) { p.serializedMigration = on }

// SetEagerPageMigration makes migrations copy every resident page along
// with the thread (no serialization cost, but the thread waits for the full
// transfer) — the stop-the-world ablation of the hDSM's on-demand design.
func (p *Process) SetEagerPageMigration(on bool) { p.eagerPageMigration = on }
