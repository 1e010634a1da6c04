package link_test

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"heterodc/internal/compiler"
	"heterodc/internal/ir"
	"heterodc/internal/isa"
	"heterodc/internal/link"
	"heterodc/internal/minic"
	"heterodc/internal/npb"
	"heterodc/internal/stackmap"
)

// toolchainGoldenPath records one digest per image for every build the
// toolchain benchmark makes (each NPB program at classes S and A with 1 and
// 4 threads) and for every program of the fuzz corpus, as "name digest"
// lines; lines starting with # are comments. The digest covers what the
// loader, the cores and the stack transformer read (imageDigest). An entry
// changes only with a deliberate change of the code the toolchain emits:
// then replace it with the line the failure prints.
const toolchainGoldenPath = "testdata/toolchain_golden.txt"

// goldenSource is one program of the golden set.
type goldenSource struct {
	name string
	src  minic.Source
}

func goldenSources(t testing.TB) []goldenSource {
	t.Helper()
	var out []goldenSource
	for _, b := range npb.All {
		for _, cls := range []npb.Class{npb.ClassS, npb.ClassA} {
			for _, threads := range []int{1, 4} {
				src, err := npb.Source(b, cls, threads)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, goldenSource{fmt.Sprintf("%s.%s.t%d", b, cls, threads), src})
			}
		}
	}
	corpus, err := filepath.Glob(filepath.Join("..", "fuzz", "testdata", "*.c"))
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no program corpus under ../fuzz/testdata (%v)", err)
	}
	slices.Sort(corpus)
	for _, path := range corpus {
		code, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenSource{"corpus/" + filepath.Base(path), minic.Source{Name: "fuzz.c", Code: string(code)}})
	}
	return out
}

// build runs the whole toolchain with the default options and an aligned
// link, as the toolchain benchmark and core.Build do.
func build(t testing.TB, name string, src minic.Source) *link.Image {
	t.Helper()
	mod, err := minic.CompileToIR(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	art, err := compiler.Compile(mod, compiler.DefaultOptions())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	img, err := link.Link(name, art, link.Options{Aligned: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return img
}

// digester writes fixed-width fields into an FNV-1a hash.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) i64(v int64) { d.u64(uint64(v)) }

func (d *digester) flag(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

// str writes s with its length, so that adjacent strings cannot trade bytes.
func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

// imageDigest hashes img's layout, code, instruction addresses, data
// segments and stackmap metadata on every ISA.
func imageDigest(img *link.Image) uint64 {
	d := &digester{h: fnv.New64a()}
	d.flag(img.Aligned)
	d.flag(img.DirectMigrate)
	d.u64(img.TextEnd)
	d.u64(img.DataEnd)
	for _, arch := range isa.Arches {
		prog := img.Prog(arch)
		d.u64(uint64(len(prog.Funcs)))
		for _, f := range prog.Funcs {
			d.str(f.Name)
			d.u64(f.Base)
			d.u64(f.Size)
			d.u64(uint64(len(f.Code)))
			for i := range f.Code {
				in := &f.Code[i]
				d.u64(uint64(in.Op)<<32 | uint64(in.Rd)<<24 | uint64(in.Rs1)<<16 | uint64(in.Rs2)<<8 | uint64(in.Rs3))
				d.i64(in.Imm)
				d.u64(math.Float64bits(in.FImm))
				d.str(in.Sym)
				d.i64(int64(in.Target))
				d.i64(int64(in.CallSiteID))
				d.i64(int64(in.Size))
				d.u64(f.Addr[i])
			}
			infoDigest(d, f.Info)
		}
		d.u64(uint64(len(img.Data[arch])))
		for _, seg := range img.Data[arch] {
			d.u64(seg.Addr)
			d.i64(seg.Size)
			d.u64(uint64(len(seg.Bytes)))
			d.h.Write(seg.Bytes)
		}
	}
	return d.h.Sum64()
}

// infoDigest hashes one function's frame and call-site metadata, with the
// maps in key order.
func infoDigest(d *digester, fi *stackmap.FuncInfo) {
	d.str(fi.Name)
	d.u64(fi.Entry)
	d.u64(fi.Size)
	d.i64(fi.FrameSize)
	d.u64(uint64(len(fi.Saves)))
	for _, s := range fi.Saves {
		d.u64(uint64(s.Reg))
		d.flag(s.IsFloat)
		d.i64(s.Off)
	}
	d.u64(uint64(len(fi.AllocaOffsets)))
	for i, off := range fi.AllocaOffsets {
		d.i64(off)
		d.i64(fi.AllocaSizes[i])
		d.flag(fi.AllocaPtr[i])
	}
	params := make([]int, 0, len(fi.StackParams))
	for p := range fi.StackParams {
		params = append(params, p)
	}
	slices.Sort(params)
	d.u64(uint64(len(params)))
	for _, p := range params {
		d.i64(int64(p))
		d.i64(fi.StackParams[p])
	}
	d.i64(fi.NumStackArgBytes)
	d.flag(fi.IsEntry)
	d.flag(fi.NoMigrate)
	sites := make([]*stackmap.CallSite, 0, len(fi.CallSites))
	for _, cs := range fi.CallSites {
		sites = append(sites, cs)
	}
	slices.SortFunc(sites, func(a, b *stackmap.CallSite) int { return cmp.Compare(a.ID, b.ID) })
	d.u64(uint64(len(sites)))
	for _, cs := range sites {
		d.i64(int64(cs.ID))
		d.u64(cs.RetPC)
		d.u64(uint64(len(cs.Live)))
		for _, lv := range cs.Live {
			d.i64(int64(lv.VReg))
			d.i64(int64(lv.Type))
			d.i64(int64(lv.Loc.Kind))
			d.u64(uint64(lv.Loc.Reg))
			d.flag(lv.Loc.IsFloat)
			d.i64(lv.Loc.Off)
		}
	}
}

// readToolchainGolden parses toolchainGoldenPath into digests by name.
func readToolchainGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(toolchainGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", toolchainGoldenPath, line)
		}
		out[name] = digest
	}
	return out
}

// TestToolchainMatchesGolden: every image of the golden set rebuilds to the
// recorded digest, stackmaps included.
func TestToolchainMatchesGolden(t *testing.T) {
	golden := readToolchainGolden(t)
	srcs := goldenSources(t)
	for _, gs := range srcs {
		got := fmt.Sprintf("%016x", imageDigest(build(t, gs.name, gs.src)))
		want, ok := golden[gs.name]
		switch {
		case !ok:
			t.Errorf("%s: no entry in %s; built\n%s %s", gs.name, toolchainGoldenPath, gs.name, got)
		case got != want:
			t.Errorf("%s: image digest %s, recorded %s; built\n%s %s", gs.name, got, want, gs.name, got)
		}
	}
	if len(golden) != len(srcs) {
		t.Errorf("%s has %d entries for %d programs", toolchainGoldenPath, len(golden), len(srcs))
	}
}

// TestRelinkIsRefused: an image owns its artifact, so a second Link of the
// same artifact is a LinkError and leaves the first image as it was — its
// code, addresses and the stackmaps it shares with the artifact included.
func TestRelinkIsRefused(t *testing.T) {
	src, err := npb.Source(npb.CG, npb.ClassS, 1)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := minic.CompileToIR("cg", src)
	if err != nil {
		t.Fatal(err)
	}
	art, err := compiler.Compile(mod, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	img, err := link.Link("cg", art, link.Options{Aligned: true})
	if err != nil {
		t.Fatal(err)
	}
	before := imageDigest(img)
	if want := imageDigest(build(t, "cg", src)); before != want {
		t.Fatalf("first image digest %016x, a fresh build gives %016x", before, want)
	}
	again, err := link.Link("cg", art, link.Options{Aligned: false})
	var le *link.LinkError
	if !errors.As(err, &le) || again != nil {
		t.Errorf("second Link returned an image: %t, error %v; want a *LinkError and no image", again != nil, err)
	}
	if after := imageDigest(img); after != before {
		t.Errorf("second Link changed the first image: digest %016x, was %016x", after, before)
	}
}

// frontEnd and backEnd run CG's build up to and including CompileToIR and
// Compile. Compile and Link consume their input, so every run of either
// stage needs a fresh one.
func frontEnd(t testing.TB, src minic.Source) *ir.Module {
	t.Helper()
	mod, err := minic.CompileToIR("cg", src)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func backEnd(t testing.TB, src minic.Source) *compiler.Artifact {
	t.Helper()
	art, err := compiler.Compile(frontEnd(t, src), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// cgA4 is the stages' input: NPB CG at class A with 4 threads, one of the
// toolchain benchmark's builds.
func cgA4(t testing.TB) minic.Source {
	t.Helper()
	src, err := npb.Source(npb.CG, npb.ClassA, 4)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// stageAllocs measures the allocations of each stage, averaged over runs.
func stageAllocs(t testing.TB, runs int) map[string]float64 {
	src := cgA4(t)
	mods := make([]*ir.Module, runs+1) // AllocsPerRun adds a warm-up run
	arts := make([]*compiler.Artifact, runs+1)
	for i := range mods {
		mods[i], arts[i] = frontEnd(t, src), backEnd(t, src)
	}
	var i, j int
	return map[string]float64{
		"CompileToIR": testing.AllocsPerRun(runs, func() {
			if _, err := minic.CompileToIR("cg", src); err != nil {
				t.Fatal(err)
			}
		}),
		"Compile": testing.AllocsPerRun(runs, func() {
			if _, err := compiler.Compile(mods[i], compiler.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
			i++
		}),
		"Link": testing.AllocsPerRun(runs, func() {
			if _, err := link.Link("cg", arts[j], link.Options{Aligned: true}); err != nil {
				t.Fatal(err)
			}
			j++
		}),
	}
}

// stageAllocCeilings is about 1.2 times what each stage allocates for CG.A
// with 4 threads (3657, 1334 and 81 on the tree that set them; copying
// every IR block in each inlining round adds about 800 to Compile).
var stageAllocCeilings = map[string]float64{"CompileToIR": 4400, "Compile": 1600, "Link": 100}

// TestToolchainAllocations holds each toolchain stage under its ceiling, so
// that a per-block, per-instruction or per-function copy coming back fails.
func TestToolchainAllocations(t *testing.T) {
	for stage, got := range stageAllocs(t, 3) {
		if ceiling := stageAllocCeilings[stage]; got > ceiling {
			t.Errorf("%s allocates %.0f objects per build of CG.A t4, ceiling %.0f", stage, got, ceiling)
		}
	}
}

// BenchmarkToolchain times each stage of one CG.A t4 build; the inputs of
// Compile and Link are prepared with the timer stopped.
func BenchmarkToolchain(b *testing.B) {
	src := cgA4(b)
	b.Run("CompileToIR", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := minic.CompileToIR("cg", src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			mod := frontEnd(b, src)
			b.StartTimer()
			if _, err := compiler.Compile(mod, compiler.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Link", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			art := backEnd(b, src)
			b.StartTimer()
			if _, err := link.Link("cg", art, link.Options{Aligned: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestSameLineFlags: in every image of the golden set, an instruction is
// flagged SameLine exactly when it lies wholly inside the 64-byte line (the
// L1 line of both machines) where the previous instruction of its function
// ends — never the first of a function. The interpreter counts a flagged
// fetch reached by fall-through as a hit without looking at the cache.
func TestSameLineFlags(t *testing.T) {
	const line = 64
	for _, gs := range goldenSources(t) {
		img := build(t, gs.name, gs.src)
		for _, arch := range isa.Arches {
			flagged, total := 0, 0
			for _, f := range img.Prog(arch).Funcs {
				for i := range f.Code {
					in := &f.Code[i]
					first, last := f.Addr[i]/line, (f.Addr[i]+uint64(in.Size)-1)/line
					want := i > 0 && in.Size > 0 && first == last &&
						(f.Addr[i-1]+uint64(f.Code[i-1].Size)-1)/line == first
					if in.SameLine != want {
						t.Fatalf("%s on %s: %s[%d] (%s at %#x, %d bytes) flagged %v, want %v",
							gs.name, arch, f.Name, i, in, f.Addr[i], in.Size, in.SameLine, want)
					}
					if want {
						flagged++
					}
					total++
				}
			}
			if flagged == 0 || flagged == total {
				t.Errorf("%s on %s: %d of %d instructions flagged", gs.name, arch, flagged, total)
			}
		}
	}
}
