package main

import (
	"embed"
	"fmt"
	"os"
	"path/filepath"

	"heterodc/internal/core"
	"heterodc/internal/isa"
	"heterodc/internal/link"
	"heterodc/internal/npb"
)

// expected/ holds the guest outputs the workloads compare against. They
// are program semantics (checksums, totals), independent of the timing
// model, so a change to the model cannot invalidate them.
//
//go:embed expected/*.txt
var expectedFS embed.FS

// expectedOutput returns the committed output of the named program.
func expectedOutput(name string) (string, error) {
	b, err := expectedFS.ReadFile("expected/" + name + ".txt")
	if err != nil {
		return "", fmt.Errorf("no expected output for %s (run with -update-expected): %w", name, err)
	}
	return string(b), nil
}

// npbName is the image and expected-file name of an NPB build.
func npbName(b npb.Bench, c npb.Class, threads int) string {
	return fmt.Sprintf("%s.%s.t%d", b, c, threads)
}

// buildNPB builds one NPB image from source, bypassing npb's image cache
// so set-up and the toolchain workload pay the toolchain every time.
func buildNPB(b npb.Bench, c npb.Class, threads int) (*link.Image, error) {
	src, err := npb.Source(b, c, threads)
	if err != nil {
		return nil, err
	}
	return core.Build(npbName(b, c, threads), src)
}

// expectedPrograms lists every program with a committed output and how to
// build it.
func expectedPrograms() map[string]func() (*link.Image, error) {
	progs := map[string]func() (*link.Image, error){
		"ballast":  buildBallast,
		"pingpong": func() (*link.Image, error) { return core.Build("pingpong", core.Src("pingpong.c", pingpongSrc)) },
	}
	add := func(b npb.Bench, c npb.Class, threads int) {
		progs[npbName(b, c, threads)] = func() (*link.Image, error) { return buildNPB(b, c, threads) }
	}
	for _, b := range npb.All {
		add(b, npb.ClassS, 1)
	}
	for _, b := range interpBenches {
		add(b, npb.ClassA, 1)
	}
	add(npb.CG, npb.ClassS, 4)
	return progs
}

// updateExpected regenerates expected/ by running every listed program on
// a single x86 machine. Run it from the benchmark's directory when a
// program's semantics change on purpose.
func updateExpected(dir string) error {
	for name, build := range expectedPrograms() {
		img, err := build()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		cl := core.NewSingle(isa.X86)
		p, err := cl.Spawn(img, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if code, err := cl.RunProcess(p); err != nil || code != 0 {
			return fmt.Errorf("%s: exit %d: %v", name, code, err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".txt"), p.Output(), 0o644); err != nil {
			return err
		}
	}
	return nil
}
