package xform_test

import (
	"fmt"
	"testing"

	"heterodc/internal/compiler"
	"heterodc/internal/isa"
	"heterodc/internal/link"
	"heterodc/internal/machine"
	"heterodc/internal/mem"
	"heterodc/internal/minic"
	"heterodc/internal/sys"
	"heterodc/internal/xform"
)

// coreMem is a bare core's memory as the transformer's MemIO.
type coreMem struct{ m *mem.Memory }

func (cm coreMem) ReadU64(addr uint64) (uint64, error)  { return cm.m.ReadU64(addr) }
func (cm coreMem) WriteU64(addr uint64, v uint64) error { return cm.m.WriteU64(addr, v) }

// parkedAtMigrate builds a program that recurses depth frames deep and
// migrates at the leaf, runs it on a bare core of arch (no kernel, every
// data and stack page present) up to the migrate system call, and returns
// the transformation input for the move to the other ISA.
func parkedAtMigrate(tb testing.TB, depth int, arch isa.Arch) *xform.Input {
	tb.Helper()
	name := fmt.Sprintf("deep%d", depth)
	mod, err := minic.CompileToIR(name, minic.Source{Name: name + ".c", Code: fmt.Sprintf(`
long deep(long n, long acc) {
	long buf[8];
	buf[0] = acc;
	if (n == 0) {
		migrate(1);
		return buf[0];
	}
	return deep(n - 1, acc + n) + buf[0];
}
long main(void) { print_i64_ln(deep(%d, 1)); return 0; }`, depth-1)})
	if err != nil {
		tb.Fatal(err)
	}
	art, err := compiler.Compile(mod, compiler.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	img, err := link.Link(name, art, link.Options{Aligned: true})
	if err != nil {
		tb.Fatal(err)
	}

	d := isa.Describe(arch)
	c := machine.NewCore(d)
	c.Prog = img.Prog(arch)
	c.Mem = mem.NewMemory()
	for _, seg := range img.Data[arch] {
		for a := mem.PageBase(seg.Addr); a < seg.Addr+uint64(seg.Size); a += mem.PageSize {
			c.Mem.EnsurePage(a)
		}
		c.Mem.WriteBytes(seg.Addr, seg.Bytes)
	}
	lo, hi := mem.ThreadStackWindow(0)
	for a := lo; a < hi; a += mem.PageSize {
		c.Mem.EnsurePage(a)
	}
	c.Mem.EnsurePage(mem.VDSOBase)
	sp := (lo + mem.StackHalf - 64) &^ 15
	if d.RetAddrOnStack {
		sp -= 8
	}
	c.RegsI[d.SP] = int64(sp)
	if err := c.SetPC(img.FuncAddr[arch]["__start"]); err != nil {
		tb.Fatal(err)
	}
	for {
		ev := c.Step()
		if ev == machine.EvSyscall {
			if num, _ := c.SyscallArgs(); num == sys.SysMigrate {
				break
			}
			tb.Fatalf("bare core reached a system call other than migrate at pc %#x", c.PC)
		}
		if ev != machine.EvNone {
			tb.Fatalf("bare core stopped with event %d at pc %#x: %v", ev, c.PC, c.Err)
		}
	}
	dst := isa.ARM64
	if arch == isa.ARM64 {
		dst = isa.X86
	}
	return &xform.Input{
		SrcProg: img.Prog(arch), DstProg: img.Prog(dst),
		Mem:  coreMem{c.Mem},
		Regs: xform.RegState{I: c.RegsI, F: c.RegsF}, PC: c.PC,
		SrcStackLo: lo, SrcStackHi: lo + mem.StackHalf,
		DstStackLo: lo + mem.StackHalf, DstStackHi: lo + 2*mem.StackHalf,
	}
}

// A Transformer that has seen a stack this deep transforms the next one
// without allocating, however deep it is, and agrees with a fresh one.
func TestTransformerReusesItsStorage(t *testing.T) {
	for _, arch := range isa.Arches {
		var tr xform.Transformer
		for _, depth := range []int{20, 60} {
			in := parkedAtMigrate(t, depth, arch)
			want, err := xform.Transform(in)
			if err != nil {
				t.Fatal(err)
			}
			if want.Stats.Frames < depth {
				t.Fatalf("%s depth %d: transformed %d frames", arch, depth, want.Stats.Frames)
			}
			if _, err := tr.Transform(in); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				got, err := tr.Transform(in)
				if err != nil {
					t.Fatal(err)
				}
				if *got != *want {
					t.Fatalf("%s depth %d: reused transformer's output differs from a fresh one's", arch, depth)
				}
			})
			if allocs != 0 {
				t.Errorf("%s depth %d: %v allocs per repeated Transform, want 0", arch, depth, allocs)
			}
		}
	}
}

// BenchmarkTransform times Transformer.Transform on a 20-frame stack in
// each direction (the bench's xform.*_us probes go through the allocating
// xform.Transform wrapper).
func BenchmarkTransform(b *testing.B) {
	for _, arch := range isa.Arches {
		b.Run("from-"+arch.String(), func(b *testing.B) {
			in := parkedAtMigrate(b, 20, arch)
			var tr xform.Transformer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Transform(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
