package machine_test

import (
	"testing"

	"heterodc/internal/cache"
	"heterodc/internal/compiler"
	"heterodc/internal/ir"
	"heterodc/internal/isa"
	"heterodc/internal/link"
	"heterodc/internal/machine"
	"heterodc/internal/mem"
	"heterodc/internal/stackmap"
)

// landingImage links, for both ISAs, a main that calls f at index 1 and
// traps at index 2, and an f whose RET is also at index 1: the return lands
// on the index that follows the RET's own, in a line flagged SameLine. main
// is padded to 4 KiB, so f's line shares a set with main's first line in a
// 64-set cache of 64-byte lines.
func landingImage(t *testing.T) *link.Image {
	t.Helper()
	art := &compiler.Artifact{Module: &ir.Module{}}
	for _, arch := range isa.Arches {
		main := []isa.Instr{{Op: isa.OpLdi, Rd: 1, Imm: 7}, {Op: isa.OpCall, Sym: "f"}, {Op: isa.OpSyscall}}
		for len(main) < 1024 {
			main = append(main, isa.Instr{Op: isa.OpNop})
		}
		f := []isa.Instr{{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: 1}, {Op: isa.OpRet}}
		for _, fn := range []struct {
			name string
			code []isa.Instr
		}{{"main", main}, {"f", f}} {
			for i := range fn.code {
				fn.code[i].Size = 4
			}
			art.Funcs[arch] = append(art.Funcs[arch], &compiler.AsmFunc{
				Name: fn.name, Arch: arch, Code: fn.code, Size: 4 * int64(len(fn.code)),
				Info: &stackmap.FuncInfo{Name: fn.name, CallSites: map[int]*stackmap.CallSite{}},
			})
		}
	}
	img, err := link.Link("landing", art, link.Options{Aligned: true})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestReturnLandingIsFetched: the fetch a RET lands on is never settled by
// the fall-through shortcut, though the landing instruction is flagged
// SameLine and sits one index past the RET's own: the callee's fetch pushed
// the landing line off the front of its set. In a direct-mapped cache the
// landing fetch is a miss; in the 8-way L1 a deeper-way hit that brings
// the line back to the front. A Step loop (which never takes the shortcut)
// and one Run must both end so.
func TestReturnLandingIsFetched(t *testing.T) {
	img := landingImage(t)
	for _, arch := range isa.Arches {
		prog := img.Prog(arch)
		main, f := prog.ByName["main"], prog.ByName["f"]
		if !main.Code[2].SameLine || !f.Code[1].SameLine || f.Base-main.Base != 4096 {
			t.Fatalf("%s: layout is not the one under test: flags %v %v, f at main+%#x",
				arch, main.Code[2].SameLine, f.Code[1].SameLine, f.Base-main.Base)
		}
		d := isa.Describe(arch)
		for _, tc := range []struct {
			cfg    cache.Config
			misses uint64
		}{
			{cache.Config{SizeBytes: 4096, LineBytes: 64, Ways: 1, MissCycles: d.L1MissPenalty}, 3},
			{cache.DefaultL1(d.L1MissPenalty), 2},
		} {
			for _, step := range []bool{true, false} {
				c := machine.NewCore(d)
				c.ICache = cache.New(tc.cfg)
				c.Prog, c.Mem = prog, mem.NewMemory()
				lo, _ := mem.ThreadStackWindow(0)
				sp := lo + mem.StackHalf
				c.Mem.EnsurePage(sp - 8)
				c.RegsI[d.SP] = int64(sp)
				if err := c.SetPC(main.Base); err != nil {
					t.Fatal(err)
				}
				var ev machine.Event
				if step {
					for ev = c.Step(); ev == machine.EvNone; ev = c.Step() {
					}
				} else {
					ev = c.Run(1 << 40)
				}
				ic := c.ICache
				if ev != machine.EvSyscall || c.Instrs != 5 || c.RegsI[1] != 8 {
					t.Fatalf("%s %+v step=%v: event %d after %d instructions, r1=%d: %v", arch, tc.cfg, step, ev, c.Instrs, c.RegsI[1], c.Err)
				}
				if ic.Accesses != 5 || ic.Misses != tc.misses || !ic.Front(main.Base>>6) {
					t.Errorf("%s %+v step=%v: I-cache %d/%d, landing line at the front %v; want %d/5, true",
						arch, tc.cfg, step, ic.Misses, ic.Accesses, ic.Front(main.Base>>6), tc.misses)
				}
			}
		}
	}
}
