package link

import (
	"runtime"
	"testing"
	"time"

	"heterodc/internal/compiler"
	"heterodc/internal/ir"
	"heterodc/internal/isa"
	"heterodc/internal/mem"
	"heterodc/internal/minic"
)

const src = `
long gvar = 7;
double garr[16];
char gname[12] = {'x', 0};

long work(long n) {
	double t = 0.0;
	for (long i = 0; i < n; i++) t += garr[i % 16];
	return gvar + (long)t;
}
long main(void) { return work(8); }
`

func buildImage(t *testing.T, aligned bool) *Image {
	t.Helper()
	m, err := minic.CompileToIR("t", minic.Source{Name: "t.c", Code: src})
	if err != nil {
		t.Fatal(err)
	}
	art, err := compiler.Compile(m, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	img, err := Link("t", art, Options{Aligned: aligned})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestAlignedLayoutIdenticalAcrossISAs(t *testing.T) {
	img := buildImage(t, true)
	for name, ax := range img.FuncAddr[isa.X86] {
		if aa := img.FuncAddr[isa.ARM64][name]; aa != ax {
			t.Errorf("func %s: %#x vs %#x", name, ax, aa)
		}
	}
	for name, ax := range img.GlobalAddr[isa.X86] {
		if aa := img.GlobalAddr[isa.ARM64][name]; aa != ax {
			t.Errorf("global %s: %#x vs %#x", name, ax, aa)
		}
	}
}

func TestAlignedPadsToLargestEncoding(t *testing.T) {
	img := buildImage(t, true)
	// Function regions must not overlap even though the two ISAs' encodings
	// differ in size: region length is the max of both.
	prog := img.Prog(isa.X86)
	for _, f := range prog.Funcs {
		fa := img.Prog(isa.ARM64).ByName[f.Name]
		end := f.Base + f.Size
		if e2 := fa.Base + fa.Size; e2 > end {
			end = e2
		}
		for _, g := range prog.Funcs {
			if g == f || g.Base < f.Base {
				continue
			}
			if g.Base < end {
				t.Fatalf("functions %s and %s overlap", f.Name, g.Name)
			}
		}
	}
}

func TestUnalignedLayoutsDiffer(t *testing.T) {
	img := buildImage(t, false)
	same := true
	for name, ax := range img.FuncAddr[isa.X86] {
		if img.FuncAddr[isa.ARM64][name] != ax {
			same = false
		}
	}
	if same {
		t.Error("unaligned layout produced identical function addresses (suspicious)")
	}
}

func TestGlobalsWithinDataSegment(t *testing.T) {
	img := buildImage(t, true)
	for name, a := range img.GlobalAddr[isa.X86] {
		if a < mem.DataBase || a >= img.DataEnd {
			t.Errorf("global %s at %#x outside data segment", name, a)
		}
	}
	if img.TextEnd >= mem.DataBase {
		t.Errorf("text end %#x overlaps data base", img.TextEnd)
	}
}

func TestDataSegmentsCarryInitBytes(t *testing.T) {
	img := buildImage(t, true)
	found := false
	addr := img.GlobalAddr[isa.X86]["gvar"]
	for _, seg := range img.Data[isa.X86] {
		if seg.Addr == addr && len(seg.Bytes) >= 8 && seg.Bytes[0] == 7 {
			found = true
		}
	}
	if !found {
		t.Error("gvar initializer bytes missing from data segments")
	}
}

func TestRetPCFallsInsideCaller(t *testing.T) {
	img := buildImage(t, true)
	for _, arch := range isa.Arches {
		prog := img.Prog(arch)
		for _, f := range prog.Funcs {
			for id, cs := range f.Info.CallSites {
				if cs.RetPC <= f.Base || cs.RetPC > f.Base+f.Size {
					t.Errorf("%s (%s) site %d: retPC %#x outside [%#x,%#x]",
						f.Name, arch, id, cs.RetPC, f.Base, f.Base+f.Size)
				}
				// The metadata lookup must resolve the retPC back to the site.
				fi, got, err := prog.SMap.SiteFor(cs.RetPC)
				if err != nil || fi.Name != f.Name || got.ID != id {
					t.Errorf("%s (%s): SiteFor(%#x) mismatch: %v", f.Name, arch, cs.RetPC, err)
				}
			}
		}
	}
}

func TestLeaResolved(t *testing.T) {
	img := buildImage(t, true)
	want := int64(img.GlobalAddr[isa.X86]["gvar"])
	for _, arch := range isa.Arches {
		f := img.Prog(arch).ByName["work"]
		found := false
		for i := range f.Code {
			if f.Code[i].Op == isa.OpLea && f.Code[i].Sym == "gvar" {
				if f.Code[i].Imm != want {
					t.Errorf("%s: lea gvar resolved to %#x want %#x", arch, f.Code[i].Imm, want)
				}
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no lea of gvar in work", arch)
		}
	}
}

func TestFuncAtAndIndexOf(t *testing.T) {
	img := buildImage(t, true)
	prog := img.Prog(isa.X86)
	f := prog.ByName["work"]
	if got := prog.FuncAt(f.Base); got != f {
		t.Error("FuncAt(base) wrong")
	}
	if got := prog.FuncAt(f.Addr[len(f.Addr)-1]); got != f {
		t.Error("FuncAt(last instr) wrong")
	}
	if prog.FuncAt(0x10) != nil {
		t.Error("FuncAt before text must be nil")
	}
	if _, err := f.IndexOf(f.Addr[2]); err != nil {
		t.Errorf("IndexOf valid addr: %v", err)
	}
	if _, err := f.IndexOf(f.Addr[2] + 1); err == nil {
		t.Error("IndexOf mid-instruction must fail")
	}
	if prog.FuncEntry(f.Base) != f {
		t.Error("FuncEntry(base) wrong")
	}
	if prog.FuncEntry(f.Base+1) != nil {
		t.Error("FuncEntry(non-entry) must be nil")
	}
}

func TestEntryAddr(t *testing.T) {
	img := buildImage(t, true)
	for _, arch := range isa.Arches {
		e := img.EntryAddr(arch)
		if img.Prog(arch).FuncEntry(e) == nil {
			t.Errorf("%s: entry %#x is not a function entry", arch, e)
		}
	}
}

// An image holds what the loader and the cores read, not the IR it was
// compiled from: with only the image kept, the module is collected.
func TestImageLetsGoOfTheModule(t *testing.T) {
	freed := make(chan struct{})
	img := func() *Image {
		m, err := minic.CompileToIR("t", minic.Source{Name: "t.c", Code: src})
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(m, func(*ir.Module) { close(freed) })
		art, err := compiler.Compile(m, compiler.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		img, err := Link("t", art, Options{Aligned: true})
		if err != nil {
			t.Fatal(err)
		}
		return img
	}()
	for range 20 {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(img)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(img)
	t.Fatal("the IR module is still reachable from its linked image")
}
