package kernel

import (
	"fmt"

	"heterodc/internal/msg"
	"heterodc/internal/sys"
)

// syscallServiceSeconds is the base in-kernel service time beyond the trap
// cost already charged by the machine.
const syscallServiceSeconds = 0.3e-6

// syscall dispatches a trapped system call. It returns true when the thread
// has left the core (blocked, exited, migrated); in that case the handler
// has already saved state via detach where appropriate.
func (k *Kernel) syscall(cs *coreSlot, num int64, args [5]int64) bool {
	c := cs.core
	t := cs.thr
	p := t.Proc
	clock := k.Desc.ClockHz
	charge := func(seconds float64) { c.Cycles += int64(seconds * clock) }
	charge(syscallServiceSeconds)

	// remoteCharge adds a round trip to the origin kernel for services whose
	// per-process authority lives there (distributed-service consistency).
	remoteCharge := func(bytes int64) {
		if k.Node != p.Origin {
			charge(k.cluster.IC.RoundTripTime(k.now(), k.Node, p.Origin, bytes))
		}
	}

	switch num {
	case sys.SysExit:
		k.detach(cs)
		p.exited = true
		p.exitCode = args[0]
		p.exitTime = k.now()
		k.cluster.reapProcess(p)
		return true

	case sys.SysWrite:
		fd, buf, n := args[0], args[1], args[2]
		if n < 0 || n > 1<<24 {
			c.SetSyscallResult(-1)
			return false
		}
		km := &kmem{k: k, p: p}
		data, err := km.ReadBytes(uint64(buf), int(n))
		if err != nil {
			k.detach(cs)
			k.killProcess(p, fmt.Errorf("write: %w", err))
			return true
		}
		charge(km.Lat)
		switch fd {
		case 1, 2:
			remoteCharge(n)
			p.Out.Write(data)
			c.SetSyscallResult(n)
		default:
			remoteCharge(n)
			c.SetSyscallResult(p.fdWrite(fd, data))
		}
		return false

	case sys.SysRead:
		fd, buf, n := args[0], args[1], args[2]
		remoteCharge(n)
		data, rn := p.fdRead(fd, n)
		if rn > 0 {
			km := &kmem{k: k, p: p}
			if err := km.WriteBytes(uint64(buf), data); err != nil {
				k.detach(cs)
				k.killProcess(p, fmt.Errorf("read: %w", err))
				return true
			}
			charge(km.Lat)
		}
		c.SetSyscallResult(rn)
		return false

	case sys.SysOpen:
		km := &kmem{k: k, p: p}
		path, err := km.ReadCString(uint64(args[0]))
		if err != nil {
			c.SetSyscallResult(-1)
			return false
		}
		charge(km.Lat)
		remoteCharge(int64(len(path)) + 64)
		c.SetSyscallResult(p.fdOpen(path, args[1]))
		return false

	case sys.SysClose:
		remoteCharge(64)
		c.SetSyscallResult(p.fdClose(args[0]))
		return false

	case sys.SysSbrk:
		remoteCharge(64)
		old := p.brk
		if args[0] > 0 {
			p.brk += uint64(args[0])
		}
		c.SetSyscallResult(int64(old))
		return false

	case sys.SysGettime:
		c.SetSyscallResult(int64(k.now() * 1e9))
		return false

	case sys.SysSpawn:
		nt, err := p.newThread(k.cluster, k.Node, "__thread_start", args[0], args[1])
		if err != nil {
			k.detach(cs)
			k.killProcess(p, fmt.Errorf("spawn: %w", err))
			return true
		}
		charge(2e-6) // thread-creation service cost
		c.SetSyscallResult(nt.Tid)
		return false

	case sys.SysJoin:
		target := p.threads[args[0]]
		if target == nil || target == t {
			c.SetSyscallResult(-1)
			return false
		}
		if target.State == Exited {
			c.SetSyscallResult(target.exitVal)
			return false
		}
		k.detach(cs)
		t.State = BlockedJoin
		t.joinTid = target.Tid
		target.joiners = append(target.joiners, t)
		// A blocked thread is quiescent; it may complete a pending
		// checkpoint barrier.
		if p.ckpt != nil && p.ckpt.pending {
			k.ckptMaybeCapture(p)
		}
		return true

	case sys.SysYield:
		k.detach(cs)
		k.enqueue(t)
		return true

	case sys.SysMigrate:
		if int(args[0]) == CkptMigrateTarget {
			return k.checkpointPark(cs)
		}
		return k.migrateThread(cs, int(args[0]))

	case sys.SysGetnode:
		c.SetSyscallResult(int64(k.Node))
		return false

	case sys.SysGettid:
		c.SetSyscallResult(t.Tid)
		return false

	case sys.SysExitThr:
		k.detach(cs)
		k.threadExit(t, args[0])
		return true

	case sys.SysNcores:
		c.SetSyscallResult(int64(len(k.cores)))
		return false

	case sys.SysRand:
		// xorshift64*, shared per process for cross-node determinism.
		x := p.rng
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		p.rng = x
		c.SetSyscallResult(int64(x * 0x2545F4914F6CDD1D >> 1)) // non-negative
		return false

	case sys.SysMigHint:
		return false

	default:
		k.detach(cs)
		k.killProcess(p, fmt.Errorf("kernel: unknown syscall %d", num))
		return true
	}
}

// threadExit finalises a thread and wakes joiners (cross-kernel joiners via
// a message).
func (k *Kernel) threadExit(t *Thread, val int64) {
	t.State = Exited
	t.exitVal = val
	t.Proc.liveThreads--
	for _, j := range t.joiners {
		k.wakeJoiner(j, val)
	}
	t.joiners = nil
	// The exiting thread leaves the checkpoint barrier's quorum; it may
	// have been the last one running.
	if t.Proc.ckpt != nil && t.Proc.ckpt.pending {
		k.ckptMaybeCapture(t.Proc)
	}
}

// wakePayload carries a join wake-up across kernels. inc stamps the
// destination incarnation the sender addressed; the delivery fence drops the
// wake if that incarnation has since been declared dead.
type wakePayload struct {
	t      *Thread
	result int64
	inc    uint64
}

func (k *Kernel) wakeJoiner(j *Thread, result int64) {
	if j.State != BlockedJoin {
		return
	}
	if j.Node == k.Node {
		j.Regs.I[k.Desc.IntRet] = result
		k.enqueue(j)
		return
	}
	if _, ok := k.cluster.IC.SendReliable(k.now(), k.Node, j.Node, msg.TRemoteWake, 64,
		&wakePayload{t: j, result: result, inc: k.cluster.incarnation[j.Node]}); !ok {
		// The joiner's node never comes back; the joiner stays blocked and
		// the cluster drains, surfacing the deadlock to the caller.
		k.cluster.tracefNode(k.Node, k.now(), "wake-lost", "join wake for tid %d to node %d undeliverable", j.Tid, j.Node)
	}
}

// handleMessage processes one delivered inter-kernel message.
func (k *Kernel) handleMessage(m *msg.Message) {
	switch m.Type {
	case msg.THeartbeat:
		if k.cluster.member != nil {
			k.cluster.member.Deliver(k.Node, m)
		}
	case msg.TRemoteWake:
		w := m.Payload.(*wakePayload)
		if !k.cluster.admitIncarnation(k, m.Type, w.inc) {
			return
		}
		if w.t.State == BlockedJoin {
			w.t.Regs.I[k.Desc.IntRet] = w.result
			k.enqueue(w.t)
		}
	case msg.TThreadMigrate:
		mp := m.Payload.(*migratePayload)
		if !k.cluster.admitIncarnation(k, m.Type, mp.inc) {
			// The thread addressed a declared-dead incarnation; its process
			// was stranded by the declaration and already reaped, so there is
			// nothing to roll back.
			return
		}
		t := mp.t
		if t.Proc.exited || t.State == Exited {
			// The process died while the thread was in flight: the payload
			// is stale and must not resurrect an Exited thread.
			return
		}
		if t.State != InFlight || t.Node != k.Node {
			// Duplicate delivery (the reliable channel double-delivers when
			// an acknowledgement is lost): the first copy already landed.
			return
		}
		k.MigrationsIn++
		if mp.deserializeSeconds > 0 {
			// Deserialization burns destination CPU before the thread runs.
			k.BusySeconds += mp.deserializeSeconds
			k.CyclesRetired += int64(mp.deserializeSeconds * k.Desc.ClockHz)
			k.sleep(t, k.now()+mp.deserializeSeconds)
			return
		}
		k.enqueue(t)
	default:
		// Other message types are modelled synchronously.
	}
}

// ReadCString reads a NUL-terminated string (max 4096 bytes) via the
// fault-resolving kernel memory view. The bytes gather on the stack, so the
// string is the call's one allocation besides the frames its faults bring
// in.
func (m *kmem) ReadCString(addr uint64) (string, error) {
	var buf [4096]byte
	n := 0
	for ; n < len(buf); n++ {
		b, err := m.ReadU8(addr + uint64(n))
		if err != nil {
			return "", err
		}
		if b == 0 {
			break
		}
		buf[n] = b
	}
	return string(buf[:n]), nil
}
