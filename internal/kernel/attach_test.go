package kernel

import (
	"slices"
	"testing"

	"heterodc/internal/compiler"
	"heterodc/internal/isa"
	"heterodc/internal/link"
	"heterodc/internal/minic"
)

// A core keeps no migration-point entry from the thread it ran before:
// every image links its text at the same base, so a stale entry address
// names an unrelated function of the next image, and calls to it would
// fire the migration-point hooks (the checkpoint policy's tick among them).
func TestAttachClearsMigrationPointEntry(t *testing.T) {
	const src = `
long f(long x) { return x + 1; }
long main(void) {
	long s = 0;
	for (long i = 0; i < 10; i++) { s += f(i); }
	print_i64_ln(s);
	return 0;
}`
	instrumented := buildImage(t, "points", src, true)
	plain := buildImage(t, "plain", src, false)

	cl := NewCluster([]isa.Arch{isa.X86}, DefaultInterconnect())
	k := cl.Kernels[0]
	points := 0
	k.InstrumentCalls(nil, func(uint64) { points++ })
	run := func(img *link.Image) {
		t.Helper()
		p, err := cl.Spawn(img, 0)
		if err != nil {
			t.Fatal(err)
		}
		if code, err := cl.RunProcess(p); err != nil || code != 0 {
			t.Fatalf("%s: exit %d, %v", img.Name, code, err)
		}
	}

	run(instrumented)
	c := k.cores[0].core
	if points == 0 || c.MigrateCheckEntry == 0 {
		t.Fatalf("instrumented run: %d points, entry %#x; want both non-zero", points, c.MigrateCheckEntry)
	}
	points = 0
	run(plain) // dispatched on the same core
	if c.MigrateCheckEntry != 0 {
		t.Errorf("core kept migration-point entry %#x for an image without migration points", c.MigrateCheckEntry)
	}
	if points != 0 {
		t.Errorf("%d migration points fired in an image without any", points)
	}
}

// buildImage compiles src with or without the migration runtime. The
// compiler installs __migrate_check in every module, so the image without
// it is linked from an artifact with the shim taken out — what a toolchain
// with no migration runtime would produce.
func buildImage(t *testing.T, name, src string, migratable bool) *link.Image {
	t.Helper()
	mod, err := minic.CompileToIR(name, minic.Source{Name: name + ".c", Code: src})
	if err != nil {
		t.Fatal(err)
	}
	art, err := compiler.Compile(mod, compiler.Options{Migration: migratable,
		MigrationOpts: compiler.DefaultMigrationOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if !migratable {
		for a := range art.Funcs {
			art.Funcs[a] = slices.DeleteFunc(art.Funcs[a], func(f *compiler.AsmFunc) bool {
				return f.Name == compiler.MigrateCheckFunc
			})
		}
	}
	img, err := link.Link(name, art, link.Options{Aligned: true})
	if err != nil {
		t.Fatal(err)
	}
	return img
}
