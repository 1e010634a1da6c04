package main

import (
	"fmt"
	"math/rand"
	"time"

	"heterodc/internal/cache"
	"heterodc/internal/core"
	"heterodc/internal/dsm"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/link"
	"heterodc/internal/machine"
	"heterodc/internal/mem"
	"heterodc/internal/msg"
	"heterodc/internal/sim"
	"heterodc/internal/sys"
	"heterodc/internal/topo"
	"heterodc/internal/traffic"
	"heterodc/internal/xform"
)

// The probes time each layer's public entry points directly, on fixed
// inputs, outside any cluster: the per-layer rows a traced op cannot
// fill because the layer sits below the decorator's boundary.

// perCall repeats batch — n calls of the function under test — until
// budget host seconds have passed, and returns nanoseconds per call.
func perCall(budget float64, n int, batch func()) float64 {
	calls := 0
	t0 := time.Now()
	for time.Since(t0).Seconds() < budget {
		batch()
		calls += n
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// runProbes runs every probe for about budget host seconds each.
func runProbes(budget float64) (map[string]float64, error) {
	out := map[string]float64{}
	for _, probe := range []func(float64, map[string]float64) error{
		probeMachine, probeCache, probeMem, probeDSM, probeMsg, probeTopo, probeXform, probeSim, probeTraffic,
	} {
		if err := probe(budget, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// bareCore loads img on a machine.Core with no kernel under it, parked at
// the thread entry shim with every data and stack page present — the
// set-up internal/machine's own tests use.
func bareCore(img *link.Image, arch isa.Arch) (*machine.Core, error) {
	d := isa.Describe(arch)
	c := machine.NewCore(d)
	c.Prog = img.Prog(arch)
	c.Mem = mem.NewMemory()
	for _, seg := range img.Data[arch] {
		for a := mem.PageBase(seg.Addr); a < seg.Addr+uint64(seg.Size); a += mem.PageSize {
			c.Mem.EnsurePage(a)
		}
		if len(seg.Bytes) > 0 {
			c.Mem.WriteBytes(seg.Addr, seg.Bytes)
		}
	}
	lo, hi := mem.ThreadStackWindow(0)
	for a := lo; a < hi; a += mem.PageSize {
		c.Mem.EnsurePage(a)
	}
	c.Mem.EnsurePage(mem.VDSOBase)
	sp := (lo + mem.StackHalf - 64) &^ 15
	if d.RetAddrOnStack {
		sp -= 8
		if err := c.Mem.WriteU64(sp, 0); err != nil {
			return nil, err
		}
	}
	c.RegsI[d.SP] = int64(sp)
	return c, c.SetPC(img.FuncAddr[arch]["__start"])
}

// stepToSyscall steps c until its next system call and returns the call
// number.
func stepToSyscall(c *machine.Core) (int64, error) {
	for {
		switch ev := c.Step(); ev {
		case machine.EvNone:
		case machine.EvSyscall:
			num, _ := c.SyscallArgs()
			return num, nil
		default:
			return 0, fmt.Errorf("bare core stopped with event %d at pc %#x: %v", ev, c.PC, c.Err)
		}
	}
}

// probeMachine times the bare interpreter loop over the flagship ballast
// up to its first system call (the final print), on each ISA.
func probeMachine(budget float64, out map[string]float64) error {
	img, err := buildBallast()
	if err != nil {
		return err
	}
	for _, arch := range isa.Arches {
		var instrs uint64
		var stepErr error
		ns := perCall(budget, 1, func() {
			c, err := bareCore(img, arch)
			if err == nil {
				_, err = stepToSyscall(c)
			}
			if err != nil {
				stepErr = err
				return
			}
			instrs = c.Instrs
		})
		if stepErr != nil {
			return fmt.Errorf("machine probe on %s: %w", arch, stepErr)
		}
		name := "machine.x86_ns_per_instr"
		if arch == isa.ARM64 {
			name = "machine.arm_ns_per_instr"
		}
		out[name] = ns / float64(instrs)
		out["machine.instrs"] += float64(instrs)
	}
	return nil
}

// probeCache times Cache.Access over a fixed trace: a 64-byte stride over
// 256 KiB (streams past the L1) interleaved with seeded random addresses
// in 16 KiB (mostly hits).
func probeCache(budget float64, out map[string]float64) error {
	c := cache.New(cache.DefaultL1(isa.Describe(isa.X86).L1MissPenalty))
	r := rand.New(rand.NewSource(1))
	trace := make([]uint64, 8192)
	for i := range trace {
		if i%2 == 0 {
			trace[i] = uint64(i/2*64) % (256 << 10)
		} else {
			trace[i] = 1<<30 + uint64(r.Intn(16<<10))
		}
	}
	out["cache.access_ns"] = perCall(budget, len(trace), func() {
		for _, a := range trace {
			c.Access(a)
		}
	})
	out["cache.miss_ratio"] = c.MissRatio()
	return nil
}

// probeMem times a ReadU64+WriteU64 pair over 64 resident pages.
func probeMem(budget float64, out map[string]float64) error {
	m := mem.NewMemory()
	const pages = 64
	for p := uint64(0); p < pages; p++ {
		m.EnsurePage(mem.HeapBase + p*mem.PageSize)
	}
	var memErr error
	out["mem.rw_ns"] = perCall(budget, 2*pages*8, func() {
		for i := uint64(0); i < pages*8; i++ {
			a := mem.HeapBase + (i*520)%(pages*mem.PageSize)&^7
			v, err := m.ReadU64(a)
			if err == nil {
				err = m.WriteU64(a, v+1)
			}
			if err != nil {
				memErr = err
			}
		}
	})
	return memErr
}

// probeDSM times Space.Fault on the worst case: two nodes alternately
// write-faulting the same 64 pages.
func probeDSM(budget float64, out map[string]float64) error {
	s := dsm.NewSpace(2)
	const pages = 64
	node := 0
	var dsmErr error
	out["dsm.fault_ns"] = perCall(budget, pages, func() {
		for p := uint64(0); p < pages; p++ {
			if _, err := s.Fault(node, p, true); err != nil {
				dsmErr = err
			}
		}
		node = 1 - node
	})
	return dsmErr
}

// probeMsg times Send followed by PopDue, and ReliableRTT, on the flat
// testbed interconnect.
func probeMsg(budget float64, out map[string]float64) error {
	ic := msg.New(kernel.DefaultInterconnect())
	ic.Grow(2)
	now := 0.0
	var lost bool
	out["msg.send_pop_ns"] = perCall(budget, 256, func() {
		for i := 0; i < 256; i++ {
			at := ic.Send(now, i%2, 1-i%2, msg.TThreadMigrate, 1024, nil)
			if ic.PopDue(1-i%2, at) == nil {
				lost = true
			}
			now = at
		}
	})
	if lost {
		return fmt.Errorf("msg probe: a sent message was not due at its delivery time")
	}
	out["msg.reliable_rtt_ns"] = perCall(budget, 256, func() {
		for i := 0; i < 256; i++ {
			rtt, ok := ic.ReliableRTT(now, i%2, 1-i%2, 4096)
			if !ok {
				lost = true
			}
			now += rtt
		}
	})
	if lost {
		return fmt.Errorf("msg probe: a reliable exchange failed on a healthy interconnect")
	}
	return nil
}

// probeTopo times Fabric.Route and Fabric.Transmit over all ordered pairs
// of the idle fleet's 256-node 4:1 tree.
func probeTopo(budget float64, out map[string]float64) error {
	fab, err := topo.Build(topo.Spec{Kind: topo.KindFatTree, Racks: idleRacks, Oversub: 4}, idleNodes)
	if err != nil {
		return err
	}
	pairs := idleNodes * (idleNodes - 1)
	unrouted := false
	out["topo.route_ns"] = perCall(budget, pairs, func() {
		for a := 0; a < idleNodes; a++ {
			for b := 0; b < idleNodes; b++ {
				if a != b {
					if _, ok := fab.Route(a, b); !ok {
						unrouted = true
					}
				}
			}
		}
	})
	if unrouted {
		return fmt.Errorf("topo probe: unrouteable pair in an uncut fat-tree")
	}
	now := 0.0
	out["topo.transmit_ns"] = perCall(budget, pairs, func() {
		for a := 0; a < idleNodes; a++ {
			for b := 0; b < idleNodes; b++ {
				if a != b {
					fab.Transmit(now, a, b, 256)
				}
			}
		}
		now += 1 // let every link drain between sweeps
	})
	return nil
}

// coreMem adapts a bare core's memory to the transformer's MemIO.
type coreMem struct{ m *mem.Memory }

func (cm coreMem) ReadU64(addr uint64) (uint64, error)  { return cm.m.ReadU64(addr) }
func (cm coreMem) WriteU64(addr uint64, v uint64) error { return cm.m.WriteU64(addr, v) }

// probeXform times xform.Transform on a 20-frame stack, captured from a
// bare core parked at its migrate system call, in each direction.
func probeXform(budget float64, out map[string]float64) error {
	img, err := core.Build("deep", core.Src("deep.c", `
long deep(long n, long acc) {
	long buf[8];
	buf[0] = acc;
	if (n == 0) {
		migrate(1);
		return buf[0];
	}
	return deep(n - 1, acc + n) + buf[0];
}
long main(void) { print_i64_ln(deep(19, 1)); return 0; }`))
	if err != nil {
		return err
	}
	lo, _ := mem.ThreadStackWindow(0)
	for _, src := range isa.Arches {
		dst := isa.ARM64
		name := "xform.x86_to_arm_us"
		if src == isa.ARM64 {
			dst, name = isa.X86, "xform.arm_to_x86_us"
		}
		c, err := bareCore(img, src)
		if err != nil {
			return err
		}
		if num, err := stepToSyscall(c); err != nil || num != sys.SysMigrate {
			return fmt.Errorf("xform probe on %s: stopped at syscall %d, want migrate: %v", src, num, err)
		}
		in := &xform.Input{
			SrcProg: img.Prog(src), DstProg: img.Prog(dst),
			Mem:  coreMem{c.Mem},
			Regs: xform.RegState{I: c.RegsI, F: c.RegsF}, PC: c.PC,
			SrcStackLo: lo, SrcStackHi: lo + mem.StackHalf,
			DstStackLo: lo + mem.StackHalf, DstStackHi: lo + 2*mem.StackHalf,
		}
		var res *xform.Output
		var xErr error
		ns := perCall(budget, 1, func() {
			if res, err = xform.Transform(in); err != nil {
				xErr = err
			}
		})
		if xErr != nil {
			return fmt.Errorf("xform probe on %s: %w", src, xErr)
		}
		if res.Stats.Frames < 20 {
			return fmt.Errorf("xform probe on %s: transformed %d frames, want at least 20", src, res.Stats.Frames)
		}
		out[name] = ns / 1e3
	}
	return nil
}

// stubModel is a sim.Model whose quantum is a clock bump: 8 nodes, each
// its own sharing group, each with the same number of quanta to run. What
// the engines cost over it is their own scheduling work.
type stubModel struct {
	now    []float64
	left   []int
	groups [][]int
}

func newStubModel(nodes, quanta int) *stubModel {
	m := &stubModel{now: make([]float64, nodes), left: make([]int, nodes)}
	for i := range m.left {
		m.left[i] = quanta
		m.groups = append(m.groups, []int{i})
	}
	return m
}

func (m *stubModel) NumNodes() int { return len(m.now) }
func (m *stubModel) ReadyTime(i int) float64 {
	if m.left[i] == 0 {
		return sim.Inf
	}
	return m.now[i]
}
func (m *stubModel) StepNode(i int) { m.now[i] += kernel.Quantum; m.left[i]-- }
func (m *stubModel) SkipTo(i int, t float64) {
	if t > m.now[i] {
		m.now[i] = t
	}
}
func (m *stubModel) Now(i int) float64       { return m.now[i] }
func (m *stubModel) NextWake(int) float64    { return sim.Inf }
func (m *stubModel) NextEvent(int) float64   { return sim.Inf }
func (m *stubModel) ApplyEvent(int)          {}
func (m *stubModel) NoteFrontier()           {}
func (m *stubModel) Groups() [][]int         { return m.groups }
func (m *stubModel) Horizon(float64) float64 { return sim.Inf }
func (m *stubModel) Frontier() float64 {
	f := sim.Inf
	for _, t := range m.now {
		if t < f {
			f = t
		}
	}
	return f
}

// probeSim times each engine over the stub model.
func probeSim(budget float64, out map[string]float64) error {
	const nodes, quanta = 8, 20000
	for _, eng := range []string{"seq", "par"} {
		unrun := false
		out["sim.stub_"+eng+"_ns_per_quantum"] = perCall(budget, nodes*quanta, func() {
			m := newStubModel(nodes, quanta)
			var e sim.Engine = sim.NewSequential(m)
			if eng == "par" {
				e = sim.NewParallel(m, sim.Options{})
			}
			for e.Step() {
			}
			for _, l := range m.left {
				if l != 0 {
					unrun = true
				}
			}
		})
		if unrun {
			return fmt.Errorf("sim probe: %s engine left quanta unrun", eng)
		}
	}
	return nil
}

// probeTraffic times Source.Next averaged over the three arrival kinds and
// Recorder.Quantile over 10 000 samples.
func probeTraffic(budget float64, out map[string]float64) error {
	var srcs []*traffic.Source
	for _, kind := range traffic.Kinds() {
		src, err := traffic.NewSource(traffic.Spec{Kind: kind, Rate: 200, Seed: 1}.WithDefaults())
		if err != nil {
			return err
		}
		srcs = append(srcs, src)
	}
	out["traffic.next_ns"] = perCall(budget, 1024*len(srcs), func() {
		for _, src := range srcs {
			for i := 0; i < 1024; i++ {
				src.Next()
			}
		}
	})
	rec := &traffic.Recorder{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		rec.Observe(r.ExpFloat64())
	}
	out["traffic.quantile_ns"] = perCall(budget, 3, func() {
		rec.Quantile(0.5)
		rec.Quantile(0.95)
		rec.Quantile(0.99)
	})
	return nil
}
