package kernel

import (
	"fmt"

	"heterodc/internal/isa"
	"heterodc/internal/mem"
	"heterodc/internal/msg"
	"heterodc/internal/xform"
)

// MigrationEvent reports one completed stack transformation + thread
// migration, for the Figure 10/11 experiments.
type MigrationEvent struct {
	// Time is when the migration point honoured the request, ArriveTime when
	// the thread's state reached the destination and it was queued there.
	Time, ArriveTime float64
	Pid              int
	Tid              int64
	From, To         int
	FromArch         isa.Arch
	Stats            xform.Stats
	// XformSeconds is the modelled user-space transformation latency.
	XformSeconds float64
	// FuncName is the function containing the migration point.
	FuncName string
	// Serialized marks a whole-state (PadMig-style) migration; StateBytes is
	// the serialized payload size.
	Serialized bool
	StateBytes int64
}

// migratePayloadBytes sizes the thread-migration message: register file,
// continuation metadata and service bookkeeping.
const migratePayloadBytes = 1024

// Serialization-baseline rates: reflection-driven serialization and
// deserialization throughput (PadMig's Java object walk), calibrated so the
// end-to-end shape matches the paper's Figure 11 (seconds of dead time
// around the transfer at full application scale).
const (
	serializeBytesPerSec   = 45e6
	deserializeBytesPerSec = 60e6
	serializeBaseSeconds   = 200e-6
)

// migratePayload crosses kernels with a migrating thread. The record the
// message carries is the thread's own (Thread.hop), so a migration
// allocates nothing: a thread has at most one migration in flight, and
// delivery, rehome and reapProcess's Sweep read the record before the
// thread can migrate again and overwrite it. Only a duplicate leg may
// outlive that, and Duplicate gives it a copy.
type migratePayload struct {
	t *Thread
	// deserializeSeconds is charged at the destination before the thread
	// becomes runnable (zero for native multi-ISA migration).
	deserializeSeconds float64
	// undo restores the thread on its source if the migration aborts.
	undo threadUndo
	// inc stamps the destination incarnation the sender addressed; the
	// delivery fence drops the payload if it has been declared dead since.
	inc uint64
}

// Duplicate gives a duplicate leg (a dup fault, or the copy a lost ack makes
// the sender retransmit) its own record (msg.Duplicator): the thread's may
// already describe its next hop when the duplicate lands.
func (mp *migratePayload) Duplicate() interface{} {
	cp := *mp
	return &cp
}

// threadUndo snapshots the source-side state a migration rolls back to when
// it aborts: the pre-transformation registers and PC, the stack half they
// ran on, and the node. Restoring these resumes the thread at the migration
// point as if the syscall had returned 0 (stay).
type threadUndo struct {
	regs xform.RegState
	pc   uint64
	half int
	node int
}

// abortMigration rolls an InFlight thread back onto its source node and
// returns the source kernel.
func (cl *Cluster) abortMigration(t *Thread, undo threadUndo) *Kernel {
	src := cl.Kernels[undo.node]
	t.Regs = undo.regs
	t.PC = undo.pc
	t.CurHalf = undo.half
	t.Node = undo.node
	// The migrate syscall reads as 0 ("stayed put") when the thread resumes.
	t.Regs.I[src.Desc.IntRet] = 0
	src.MigrationsAborted++
	return src
}

// rehome returns an in-flight migrating thread to its source after the
// destination crashed under it (called from CrashNode's queue drain).
func (cl *Cluster) rehome(mp *migratePayload, now float64) {
	t := mp.t
	if t.State != InFlight || t.Proc.exited {
		return
	}
	src := cl.abortMigration(t, mp.undo)
	cl.tracefNode(mp.undo.node, now, "migrate-rehome", "tid %d of pid %d back to node %d", t.Tid, t.Proc.Pid, mp.undo.node)
	src.enqueue(t)
}

// XformLatency models the stack transformation's wall time from the work it
// performed, calibrated to the paper's Figure 10: the x86 machine rewrites
// typical stacks in under ~400 µs, the ARM machine in roughly twice that,
// and latency grows with the number of frames and live values (metadata
// parsing plus value copying).
func XformLatency(arch isa.Arch, st xform.Stats) float64 {
	lat := 55e-6 +
		28e-6*float64(st.Frames) +
		3.2e-6*float64(st.LiveValues) +
		0.012e-6*float64(st.AllocaBytes/8) +
		2.5e-6*float64(st.RegWalks)
	if arch == isa.ARM64 {
		lat *= 2.05
	}
	return lat
}

// xformState is what a kernel keeps between stack transformations so that
// one costs no allocation: the transformer with its working storage, the
// input record handed to it and the fault-resolving memory view it works
// through.
type xformState struct {
	tr xform.Transformer
	in xform.Input
	km kmem
}

// transform rewrites the stack of one of p's threads, suspended as in
// describes (in.Mem is supplied here), on this kernel. It returns the resume
// state — valid until the kernel's next transformation — and the DSM latency
// the transformer's memory accesses accumulated.
func (k *Kernel) transform(p *Process, in xform.Input) (*xform.Output, float64, error) {
	if k.xf == nil {
		k.xf = new(xformState)
	}
	xf := k.xf
	xf.km = kmem{k: k, p: p}
	xf.in = in
	xf.in.Mem = &xf.km
	out, err := xf.tr.Transform(&xf.in)
	lat := xf.km.Lat
	// Keep no reference to the process or its image past the call.
	xf.km, xf.in = kmem{}, xform.Input{}
	return out, lat, err
}

// pullAllPages is the eager baselines' bulk transfer: every page anyone
// owns ends Exclusive on target and dropped everywhere else — also where
// target already owned it and the others held read-only copies — as
// ForceOwn leaves the directory. It returns how many had to cross kernels.
func (p *Process) pullAllPages(target int) (moved uint64) {
	for _, pg := range p.Space.OwnedPages() {
		base := pg << mem.PageShift
		if prev, ok := p.Space.ForceOwn(target, pg); ok {
			p.pullPage(base, prev, target, true)
			moved++
		}
		for n := range p.Mems {
			if n != target {
				p.Mems[n].DropPage(base)
			}
		}
		p.Mems[target].Unprotect(base)
	}
	return moved
}

// migrateThread implements the thread-migration service: it runs the
// user-space stack transformation, then ships the thread's transformed
// register state to the target kernel. Memory stays behind and follows on
// demand through the hDSM service (no stop-the-world).
func (k *Kernel) migrateThread(cs *coreSlot, target int) bool {
	c := cs.core
	t := cs.thr
	p := t.Proc
	cl := k.cluster

	delete(p.pendingMig, t.Tid)
	if target == k.Node || target < 0 || target >= len(cl.Kernels) {
		k.vdsoSetFlag(p, t.Tid, 0)
		c.SetSyscallResult(0)
		return false
	}
	if cl.parGroups && cl.groupOf[target] != cl.groupOf[k.Node] {
		// A direct migrate(n) syscall to a node outside the sharing group
		// while groups run in parallel: refuse it deterministically (the
		// thread stays put, the syscall reads 0). The vDSO request path never
		// gets here — its pending target joins the group at the barrier
		// before the flag can be consumed.
		k.vdsoSetFlag(p, t.Tid, 0)
		c.SetSyscallResult(0)
		k.MigrationsAborted++
		return false
	}
	if cl.member != nil {
		// With a failure detector installed, the migration service consults
		// this node's lease view, not the oracle: an expired lease aborts at
		// the migration point before any state moves. A crashed-but-not-yet-
		// suspected target is allowed through — the reliable transfer below
		// then waits the outage out or exhausts its retries and rolls back,
		// which is exactly what lease expiry mid-handshake looks like.
		if cl.member.Suspected(k.Node, target) {
			k.vdsoSetFlag(p, t.Tid, 0)
			c.SetSyscallResult(0)
			k.MigrationsAborted++
			cl.tracefNode(k.Node, k.now(), "migrate-abort", "tid %d of pid %d: node %d lease expired", t.Tid, p.Pid, target)
			return false
		}
	} else if cl.NodeDown(target) {
		// Destination is crashed: abort at the migration point before any
		// state moves; the thread keeps running where it is.
		k.vdsoSetFlag(p, t.Tid, 0)
		c.SetSyscallResult(0)
		k.MigrationsAborted++
		cl.tracefNode(k.Node, k.now(), "migrate-abort", "tid %d of pid %d: node %d is down", t.Tid, p.Pid, target)
		return false
	}
	if !p.Img.Aligned {
		k.detach(cs)
		k.killProcess(p, fmt.Errorf("kernel: cannot migrate unaligned binary %q", p.Img.Name))
		return true
	}
	dstK := cl.Kernels[target]

	// The serialization baseline walks and ships the whole application state
	// up front; the thread resumes only after deserialization completes.
	var serializeLat, deserializeLat float64
	var stateBytes int64
	eager := p.serializedMigration || p.eagerPageMigration
	if eager {
		stateBytes = int64(p.Space.OwnedCount()) * mem.PageSize
	}
	if p.serializedMigration {
		serializeLat = serializeBaseSeconds + float64(stateBytes)/serializeBytesPerSec
		deserializeLat = float64(stateBytes) / deserializeBytesPerSec
	}

	srcLo, srcHi := t.StackHalfBounds()
	dstLo, dstHi := t.OtherHalfBounds()
	out, faultLat, err := k.transform(p, xform.Input{
		SrcProg:    p.Img.Prog(k.Arch),
		DstProg:    p.Img.Prog(dstK.Arch),
		Regs:       xform.RegState{I: c.RegsI, F: c.RegsF},
		PC:         c.PC,
		SrcStackLo: srcLo, SrcStackHi: srcHi,
		DstStackLo: dstLo, DstStackHi: dstHi,
	})
	if err != nil {
		k.detach(cs)
		k.killProcess(p, fmt.Errorf("kernel: stack transformation failed: %w", err))
		return true
	}

	// Attribute the event to the application function that hit the point
	// (the innermost transformed frame), not the check itself.
	funcName := ""
	if fi := p.Img.Prog(dstK.Arch).SMap.FuncAt(out.PC); fi != nil {
		funcName = fi.Name
	}

	xlat := XformLatency(k.Arch, out.Stats) + faultLat
	if p.serializedMigration {
		// The state walk dominates; the (free) bytecode-level remapping
		// replaces the stack transformation.
		xlat = serializeLat
	}
	// The transformation/serialization runs in user space on the source
	// core: busy time.
	k.BusySeconds += xlat
	k.CyclesRetired += int64(xlat * k.Desc.ClockHz)

	k.vdsoSetFlag(p, t.Tid, 0)
	k.detach(cs)
	t.hop = migratePayload{
		t: t, deserializeSeconds: deserializeLat, inc: cl.incarnation[target],
		undo: threadUndo{regs: t.Regs, pc: t.PC, half: t.CurHalf, node: k.Node},
	}
	t.State = InFlight
	t.Node = target
	t.inflightFrom = k.Node
	t.CurHalf = 1 - t.CurHalf
	t.Regs = out.Regs
	t.PC = out.PC

	payloadSize := int64(migratePayloadBytes)
	if eager {
		// Move every page eagerly with the serialized state.
		moved := p.pullAllPages(target)
		k.PagesOut += moved
		cl.Kernels[target].PagesIn += moved
		payloadSize = stateBytes + migratePayloadBytes
	}
	// at is the delivery time, or when the sender gave up.
	at, ok := cl.IC.SendReliable(k.now()+xlat, k.Node, target, msg.TThreadMigrate, payloadSize, &t.hop)
	if !ok {
		// Transfer retries exhausted or the destination died for good
		// mid-handshake: roll the thread back onto this node. The time the
		// reliable channel burned trying is real — the thread sleeps it off
		// before resuming at the migration point.
		cl.abortMigration(t, t.hop.undo)
		cl.tracefNode(k.Node, k.now(), "migrate-abort", "tid %d of pid %d: transfer to node %d failed", t.Tid, p.Pid, target)
		if at > k.now() {
			k.sleep(t, at)
		} else {
			k.enqueue(t)
		}
		return true
	}
	t.Migrations++
	k.MigrationsOut++

	if cl.OnMigration != nil {
		// Serialised across sharing groups: observers see one event at a time.
		cl.cbMu.Lock()
		cl.OnMigration(MigrationEvent{
			Time: k.now(), ArriveTime: at, Pid: p.Pid, Tid: t.Tid,
			From: k.Node, To: target, FromArch: k.Arch,
			Stats: out.Stats, XformSeconds: xlat, FuncName: funcName,
			Serialized: p.serializedMigration, StateBytes: stateBytes,
		})
		cl.cbMu.Unlock()
	}
	return true
}

// RequestMigration asks thread tid of p to migrate to target at its next
// migration point (the scheduler raising the vDSO flag).
func (cl *Cluster) RequestMigration(p *Process, tid int64, target int) error {
	if target < 0 || target >= len(cl.Kernels) {
		return fmt.Errorf("kernel: no node %d", target)
	}
	t := p.threads[tid]
	if t == nil {
		return fmt.Errorf("kernel: no thread %d", tid)
	}
	if t.State == Exited {
		return fmt.Errorf("kernel: thread %d exited", tid)
	}
	k := cl.Kernels[t.Node]
	k.vdsoSetFlag(p, tid, int64(target)+1)
	p.pendingMig[tid] = target
	return nil
}

// RequestProcessMigration raises the migration flag for every live thread
// of p (heterogeneous OS-container migration).
func (cl *Cluster) RequestProcessMigration(p *Process, target int) {
	for _, t := range p.threads {
		if t.State != Exited {
			cl.Kernels[t.Node].vdsoSetFlag(p, t.Tid, int64(target)+1)
			p.pendingMig[t.Tid] = target
		}
	}
}
