// Package kernel implements the replicated-kernel OS: one kernel per
// machine, each natively compiled for its ISA, sharing no data structures
// and interacting only via messages — the Popcorn Linux model the paper
// extends. Distributed services (hDSM, thread migration, the heterogeneous
// binary loader, a distributed filesystem view) present a single operating
// environment, the heterogeneous OS-container, to migrating applications.
package kernel

import (
	"container/heap"
	"fmt"

	"heterodc/internal/dsm"
	"heterodc/internal/isa"
	"heterodc/internal/machine"
	"heterodc/internal/mem"
	"heterodc/internal/sys"
)

// Quantum is the co-simulation time slice: each kernel advances in slices
// of this length, which bounds cross-machine clock skew.
const Quantum = 2e-6 // 2 µs

// Timeslice is the scheduler's preemption interval.
const Timeslice = 5e-3 // 5 ms

// coldFaultSeconds is the cost of a first-touch (zero-fill) fault.
const coldFaultSeconds = 0.8e-6

// dsmServiceCPUSeconds is the kernel CPU time charged per page transfer at
// each endpoint (the multithreaded hDSM service work visible in Figure 11's
// load spike).
const dsmServiceCPUSeconds = 3e-6

// Kernel is one machine's OS instance.
type Kernel struct {
	Node int
	Arch isa.Arch
	Desc *isa.Desc

	cluster *Cluster

	// cores holds one slot per hardware core; a slot's machine.Core is
	// built when a thread is first attached to it (coreOf), so a node that
	// never runs a guest instruction holds no core state. Never resized:
	// each core's checkpoint tick holds a pointer to its slot.
	cores []coreSlot
	runq  []*Thread

	// own is the clock as this kernel last set it; read the clock through
	// now, which adds a drag the engine has not written yet.
	own      float64
	sleepers sleepHeap

	// Quanta counts executed scheduling quanta on this kernel. Each kernel
	// bumps only its own counter (single writer even under the parallel
	// engine); Cluster.Quanta sums them at a barrier.
	Quanta uint64

	// Accounting for the power model and load traces.
	BusySeconds    float64 // core-seconds spent executing threads
	ServiceSeconds float64 // core-seconds spent in kernel services (DSM)
	InstrsRetired  uint64
	CyclesRetired  int64

	// DSM traffic counters.
	PagesIn  uint64
	PagesOut uint64

	// MigrationsIn/Out count thread arrivals/departures.
	MigrationsIn  uint64
	MigrationsOut uint64
	// MigrationsAborted counts migrations aborted and rolled back onto this
	// (source) node: destination down at the migration point, transfer
	// retries exhausted, or destination crashed under an in-flight thread.
	MigrationsAborted uint64

	// down marks the node fail-stopped: it executes nothing and falls off
	// the interconnect until RecoverNode. Memory is preserved.
	down bool

	// slow is the gray-failure CPU slowdown factor for the current quantum
	// (1 when healthy). It is sampled from the fault injector at the top of
	// each quantum — a pure function of (node, time), so it adds no
	// engine hazard — and scales the effective clock: cycles retire slow
	// times slower, and accounting charges the inflated wall time.
	slow float64

	// xf is the stack-transformation state, built at the first migration or
	// cross-ISA restore this kernel performs (most kernels of a fleet never
	// perform one).
	xf *xformState

	// The instrumentation hooks InstrumentCalls and InstrumentPointAttr
	// installed, replayed onto every core built after them.
	onAnyCall, onMigratePoint func(uint64)
	onMigratePointAt          func(string)
}

// Down reports whether the node is currently crashed.
func (k *Kernel) Down() bool { return k.down }

type coreSlot struct {
	core *machine.Core // nil until a thread is first attached
	thr  *Thread
}

// newKernel makes k the kernel for the machine d describes — its ISA, core
// count, clock and per-op costs — with the core slots in cores.
func newKernel(k *Kernel, cl *Cluster, node int, d *isa.Desc, cores []coreSlot) {
	*k = Kernel{Node: node, Arch: d.Arch, Desc: d, cluster: cl, cores: cores, slow: 1}
}

// coreOf returns cs's core, building it on first use. A core built here is
// the one NewCore built eagerly before: its caches and TLB allocate at
// first access either way, and the hooks installed on the kernel so far
// are replayed onto it.
func (k *Kernel) coreOf(cs *coreSlot) *machine.Core {
	if cs.core != nil {
		return cs.core
	}
	c := machine.NewCore(k.Desc)
	// Kernel-owned migration-point hook: drives the checkpoint policy.
	// Experiments overwrite the instrumentation hooks, never this one.
	c.OnPointKernel = func() { k.pointTick(cs) }
	c.OnAnyCall, c.OnMigratePoint = k.onAnyCall, k.onMigratePoint
	c.OnMigratePointAt = k.onMigratePointAt
	cs.core = c
	return c
}

// Now returns the kernel's local simulated time.
func (k *Kernel) Now() float64 { return k.now() }

// now returns the kernel's clock: its own, or — while the node is drained —
// the instant the engine has dragged it to without writing it here
// (sim.Feed.Floor), whichever is later. Every read of the clock goes
// through here.
func (k *Kernel) now() float64 {
	if t := k.cluster.feed.Floor(k.Node); t > k.own {
		return t
	}
	return k.own
}

// Cores returns the number of cores.
func (k *Kernel) Cores() int { return len(k.cores) }

// BusyCores returns how many cores currently run a thread.
func (k *Kernel) BusyCores() int {
	n := 0
	for i := range k.cores {
		if k.cores[i].thr != nil {
			n++
		}
	}
	return n
}

// RunnableLoad returns running plus queued threads (the scheduler policies'
// CPU-load signal).
func (k *Kernel) RunnableLoad() int { return k.BusyCores() + len(k.runq) }

func (k *Kernel) enqueue(t *Thread) {
	t.State = Ready
	k.runq = append(k.runq, t)
	k.changed()
}

// sleep blocks t until wakeAt.
func (k *Kernel) sleep(t *Thread, wakeAt float64) {
	t.State = Sleeping
	t.wakeAt = wakeAt
	heap.Push(&k.sleepers, t)
	k.changed()
}

// nextEventTime returns the earliest future event (sleeper wake or message
// delivery), or +inf.
func (k *Kernel) nextEventTime() float64 {
	t := inf
	if k.sleepers.Len() > 0 {
		t = k.sleepers[0].wakeAt
	}
	if d, ok := k.cluster.IC.NextDeliver(k.Node); ok && d < t {
		t = d
	}
	return t
}

const inf = 1e30

// step advances the kernel by one quantum: deliver due messages, wake due
// sleepers, dispatch, and run every busy core for the quantum.
func (k *Kernel) step() {
	k.Quanta++
	end := k.now() + Quantum
	k.slow = k.cluster.slowAt(k.Node, k.now())

	// Deliver due messages.
	for {
		m := k.cluster.IC.PopDue(k.Node, end)
		if m == nil {
			break
		}
		k.handleMessage(m)
	}
	// Wake due sleepers.
	for k.sleepers.Len() > 0 && k.sleepers[0].wakeAt <= end {
		t := heap.Pop(&k.sleepers).(*Thread)
		if t.State == Sleeping {
			k.enqueue(t)
		}
	}
	// Dispatch ready threads onto idle cores.
	k.dispatch()

	// Run each busy core up to the end of the quantum.
	for i := range k.cores {
		if cs := &k.cores[i]; cs.thr != nil {
			k.runCore(cs, end)
		}
	}
	k.own = end
	// One report covers everything the quantum did to this node (messages
	// and sleepers popped, threads dispatched, the clock).
	k.changed()
}

// skipTo advances an idle kernel's clock without work.
func (k *Kernel) skipTo(t float64) {
	if t > k.now() {
		k.own = t
		k.changed()
	}
}

func (k *Kernel) dispatch() {
	for i := range k.cores {
		cs := &k.cores[i]
		if cs.thr != nil || len(k.runq) == 0 {
			continue
		}
		// Shift down in place: reslicing from the front would shrink the
		// backing array and make every later enqueue reallocate.
		t := k.runq[0]
		n := copy(k.runq, k.runq[1:])
		k.runq[n] = nil
		k.runq = k.runq[:n]
		k.attach(cs, t)
	}
}

// attach loads thread state onto a core.
func (k *Kernel) attach(cs *coreSlot, t *Thread) {
	cs.thr = t
	k.changed()
	t.State = Running
	t.sliceStart = k.now()
	c := k.coreOf(cs)
	c.Prog = t.Proc.Img.Prog(k.Arch)
	c.Mem = t.Proc.mem(k.Node)
	c.RegsI = t.Regs.I
	c.RegsF = t.Regs.F
	c.CurTID = t.Tid
	c.CurNode = int64(k.Node)
	// Zero when the image has no migration points: every image links its
	// text at the same base, so a previous thread's entry address would
	// name some unrelated function of this one.
	c.MigrateCheckEntry = c.Prog.MigrateCheck
	if err := c.SetPC(t.PC); err != nil {
		// A thread with a wild PC is killed with its process.
		k.killProcess(t.Proc, fmt.Errorf("dispatch: %w", err))
		cs.thr = nil
		return
	}
	c.ResetPointCounters()
}

// detach saves core state back into the thread.
func (k *Kernel) detach(cs *coreSlot) {
	t := cs.thr
	c := cs.core
	t.Regs.I = c.RegsI
	t.Regs.F = c.RegsF
	t.PC = c.PC
	cs.thr = nil
	k.changed()
}

// runCore executes cs.thr until the quantum ends or the thread leaves the
// core (block, exit, migrate, preempt).
func (k *Kernel) runCore(cs *coreSlot, end float64) {
	c := cs.core
	t := cs.thr
	// Effective clock under a gray CPU failure. Division by exactly 1.0 is
	// an IEEE identity, so the healthy path is bit-identical to the
	// pre-slowdown model.
	clock := k.Desc.ClockHz / k.slow
	start := k.now()
	budget := int64((end - start) * clock) // cycles available this quantum
	c.Cycles = 0

run:
	for budget > 0 {
		switch c.Run(budget) {
		case machine.EvNone:
			break run // budget exhausted
		case machine.EvSyscall:
			budget -= c.Cycles
			k.accountCore(c)
			num, args := c.SyscallArgs()
			if k.syscall(cs, num, args) {
				// Thread left the core (blocked, exited, migrated).
				return
			}
		case machine.EvFault:
			budget -= c.Cycles
			k.accountCore(c)
			now := end - float64(budget)/clock
			stallUntil, err := k.handleFault(t, c.FaultAddr, c.FaultWrite, now)
			if err != nil {
				k.detach(cs)
				k.killProcess(t.Proc, err)
				return
			}
			if stallUntil > 0 {
				// Block until the page arrives; the instruction will
				// re-execute on wake.
				k.detach(cs)
				k.sleep(t, stallUntil)
				return
			}
			// Cold fault: resolved in place; charge its cost as cycles.
			c.Cycles += int64(coldFaultSeconds * clock)
		case machine.EvError:
			k.accountCore(c)
			k.detach(cs)
			k.killProcess(t.Proc, c.Err)
			return
		}
	}
	// Quantum exhausted. Timeslice check.
	k.accountCore(c)
	if end-t.sliceStart >= Timeslice && len(k.runq) > 0 {
		k.detach(cs)
		k.enqueue(t)
	}
}

// accountCore accrues busy time and retirement counters and resets the
// core's slice counter.
func (k *Kernel) accountCore(c *machine.Core) {
	// Wall time per cycle inflates with the slowdown factor (multiplying
	// by exactly 1.0 keeps the healthy path bit-identical). The cycle and
	// instruction counters stay nominal: a degraded node retires the same
	// work, just slower — which is precisely the retire-rate signature the
	// health monitor scores.
	seconds := float64(c.Cycles) * k.slow / k.Desc.ClockHz
	k.BusySeconds += seconds
	k.CyclesRetired += c.Cycles
	k.InstrsRetired = c.Instrs
	c.Cycles = 0
}

// stackGuardPage reports whether addr falls in the guard page at the
// bottom of a stack half: touching it means the thread overflowed its
// stack (or, before the guard, would have corrupted a neighbouring
// thread's window).
func stackGuardPage(addr uint64) bool {
	if addr < mem.StackRegion || addr >= mem.StackRegion+mem.MaxThreads*mem.StackWindow {
		return false
	}
	offInHalf := (addr - mem.StackRegion) % mem.StackHalf
	return offInHalf < mem.PageSize
}

// handleFault resolves a DSM fault taken by a running thread. Returns a
// wake time (>0) if the thread must sleep for a page transfer or an
// invalidation, or 0 for an in-place (cold) resolution.
func (k *Kernel) handleFault(t *Thread, addr uint64, write bool, now float64) (float64, error) {
	if stackGuardPage(addr) {
		return 0, fmt.Errorf("kernel: stack overflow: tid %d touched guard page at %#x", t.Tid, addr)
	}
	act, rtt, err := k.resolveFault(t.Proc, addr, write, now)
	if act.TransferFrom >= 0 {
		// hDSM service CPU work at both endpoints, spent whether or not
		// the reply then arrives.
		k.ServiceSeconds += dsmServiceCPUSeconds
		k.cluster.Kernels[act.TransferFrom].ServiceSeconds += dsmServiceCPUSeconds
	}
	if err != nil || act.Cold {
		return 0, err
	}
	return now + rtt, nil
}

// resolveFault runs the hDSM protocol for one fault by this node on p's
// page at addr, at simulated instant now. A first touch zero-fills in place;
// otherwise the other copies are dropped or protected as the directory
// directs and either the owner's content is installed (a request/reply
// round trip carrying the page) or a Shared copy is upgraded in place (an
// invalidation round trip with the nearest copy holder or the origin's
// directory, no data). It returns the directory's action and the latency
// of the resolution; how that latency and the service CPU time are charged
// is the caller's business (a thread sleeps, kmem accumulates).
func (k *Kernel) resolveFault(p *Process, addr uint64, write bool, now float64) (dsm.Action, float64, error) {
	page := mem.PageIndex(addr)
	act, err := p.Space.Fault(k.Node, page, write)
	if err != nil {
		return act, 0, fmt.Errorf("kernel: node %d addr %#x: %w", k.Node, addr, err)
	}
	base := page << mem.PageShift
	local := p.mem(k.Node)

	if act.Cold {
		local.EnsurePage(base)
		return act, coldFaultSeconds, nil
	}

	peer, size := act.TransferFrom, int64(mem.PageSize)
	if peer >= 0 {
		// Bring the content in BEFORE applying Drop directives — the owner's
		// copy is the content source and Drop destroys it. An Exclusive
		// grant leaves no other copy, the source's included: take its frame.
		p.pullPage(base, peer, k.Node, act.Grant == dsm.Exclusive)
		k.PagesIn++
		k.cluster.Kernels[peer].PagesOut++
	} else {
		peer, size = dsmPeer(act, p, k.Node), 0
	}
	// Apply protection changes at the other copies now (content freezes).
	k.applyDSM(p, act, base)
	if act.Grant == dsm.Shared {
		local.Protect(base)
	} else {
		local.Unprotect(base)
	}
	rtt, ok := k.cluster.IC.ReliableRTT(now, k.Node, peer, size)
	if !ok {
		return act, 0, fmt.Errorf("kernel: node %d: page %#x: node %d unresponsive", k.Node, base, peer)
	}
	return act, rtt, nil
}

// pullPage brings the content of p's page at base from node from's memory
// into node to's: the one place a page crosses kernels (demand faults, the
// eager migration baselines). When the source copy is about to be dropped
// anyway (take), the frame itself changes hands — hDSM's identity mapping
// means the bytes need no rewriting, so they need no copying either;
// otherwise the content is copied from the source, which keeps its copy.
// A source with no frame (the directory and the memory disagree) leaves the
// destination's page as it is, zero-filled if new. The source, which the
// directory names, has touched p; the destination may be touching it now.
func (p *Process) pullPage(base uint64, from, to int, take bool) {
	src, dst := p.mems[from], p.mem(to)
	if !take {
		dst.InstallPage(base, src.Page(base))
	} else if frame := src.TakePage(base); frame != nil {
		dst.AdoptPage(base, frame)
	} else {
		dst.EnsurePage(base)
	}
}

// dsmPeer picks the remote endpoint an invalidation round trip talks to:
// a node losing its copy if any, else the origin's directory authority.
// With no remote party involved the exchange is local and free of faults.
func dsmPeer(act dsm.Action, p *Process, self int) int {
	for _, n := range act.Drop {
		if n != self {
			return n
		}
	}
	for _, n := range act.Protect {
		if n != self {
			return n
		}
	}
	if p.Origin != self {
		return p.Origin
	}
	return self
}

// applyDSM applies Drop/Protect directives to other nodes' copies. The
// directory names only nodes that hold a copy, so each has a view.
func (k *Kernel) applyDSM(p *Process, act dsm.Action, base uint64) {
	for _, n := range act.Drop {
		p.mems[n].DropPage(base)
	}
	for _, n := range act.Protect {
		p.mems[n].Protect(base)
	}
}

// killProcess terminates every thread of p on every kernel.
func (k *Kernel) killProcess(p *Process, err error) {
	if p.exited {
		return
	}
	p.exited = true
	p.exitCode = -1
	p.exitTime = k.now()
	p.failErr = err
	k.cluster.reapProcess(p)
}

// --- sleep heap ---

type sleepHeap []*Thread

func (h sleepHeap) Len() int            { return len(h) }
func (h sleepHeap) Less(i, j int) bool  { return h[i].wakeAt < h[j].wakeAt }
func (h sleepHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *sleepHeap) Push(x interface{}) { *h = append(*h, x.(*Thread)) }
func (h *sleepHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	*h = old[:n-1]
	return t
}

// --- kernel-side synchronous memory (loader, transformer) ---

// kmem is the kernel's synchronous view of a process address space: reads
// and writes resolve DSM faults inline, accumulating the transfer latency
// in Lat (charged to the calling thread by the service that uses it).
type kmem struct {
	k   *Kernel
	p   *Process
	Lat float64
}

// mem is the local memory the view reads and writes.
func (m *kmem) mem() *mem.Memory { return m.p.mem(m.k.Node) }

// resolve runs the DSM protocol for the fault an access of size bytes at
// addr just took, so the access can be retried.
func (m *kmem) resolve(addr, size uint64, write bool) error {
	addr = m.mem().FaultAddr(addr, size, write)
	_, lat, err := m.k.resolveFault(m.p, addr, write, m.k.now()+m.Lat)
	m.Lat += lat
	return err
}

// ReadU64 implements xform.MemIO.
func (m *kmem) ReadU64(addr uint64) (uint64, error) {
	for {
		if v, ok := m.mem().LoadU64(addr); ok {
			return v, nil
		}
		if err := m.resolve(addr, 8, false); err != nil {
			return 0, err
		}
	}
}

// WriteU64 implements xform.MemIO.
func (m *kmem) WriteU64(addr uint64, v uint64) error {
	for !m.mem().StoreU64(addr, v) {
		if err := m.resolve(addr, 8, true); err != nil {
			return err
		}
	}
	return nil
}

// ReadU8 reads one byte, resolving faults.
func (m *kmem) ReadU8(addr uint64) (byte, error) {
	for {
		if b, ok := m.mem().LoadU8(addr); ok {
			return b, nil
		}
		if err := m.resolve(addr, 1, false); err != nil {
			return 0, err
		}
	}
}

// ReadBytes reads n bytes, resolving faults.
func (m *kmem) ReadBytes(addr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := range out {
		b, err := m.ReadU8(addr + uint64(i))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// WriteBytes writes data, resolving faults.
func (m *kmem) WriteBytes(addr uint64, data []byte) error {
	for i, b := range data {
		for !m.mem().StoreU8(addr+uint64(i), b) {
			if err := m.resolve(addr+uint64(i), 1, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// vdsoSetFlag writes thread tid's migration-request word on this kernel's
// local vDSO copy.
func (k *Kernel) vdsoSetFlag(p *Process, tid int64, val int64) {
	addr := sys.MigrationFlagAddr(tid)
	// The vDSO page is present and writable in every view p.mem builds.
	if err := p.mem(k.Node).WriteU64(addr, uint64(val)); err != nil {
		panic(fmt.Sprintf("kernel: vdso write failed: %v", err))
	}
}

// InstrumentCalls installs the Valgrind-style analysis hooks on every core,
// built or not yet built: onAnyCall fires at each function call with the
// instruction count since the previous call; onMigratePoint fires at each
// executed migration point with the count since the previous point
// (Figures 3-5).
func (k *Kernel) InstrumentCalls(onAnyCall, onMigratePoint func(uint64)) {
	k.onAnyCall, k.onMigratePoint = onAnyCall, onMigratePoint
	for _, cs := range k.cores {
		if cs.core != nil {
			cs.core.OnAnyCall, cs.core.OnMigratePoint = onAnyCall, onMigratePoint
		}
	}
}

// CacheStats sums instruction- and data-cache accesses/misses over the
// cores built so far (a core never built has made no access).
func (k *Kernel) CacheStats() (iAcc, iMiss, dAcc, dMiss uint64) {
	for _, cs := range k.cores {
		if cs.core == nil {
			continue
		}
		iAcc += cs.core.ICache.Accesses
		iMiss += cs.core.ICache.Misses
		dAcc += cs.core.DCache.Accesses
		dMiss += cs.core.DCache.Misses
	}
	return
}

// InstrumentPointAttr installs a per-migration-point attribution hook on
// every core, built or not yet built (experiment diagnostics).
func (k *Kernel) InstrumentPointAttr(fn func(string)) {
	k.onMigratePointAt = fn
	for _, cs := range k.cores {
		if cs.core != nil {
			cs.core.OnMigratePointAt = fn
		}
	}
}
