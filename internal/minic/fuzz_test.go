package minic_test

import (
	"os"
	"path/filepath"
	"testing"

	"heterodc/internal/minic"
	"heterodc/internal/npb"
)

// FuzzCompile feeds the front end hostile sources, as hdcrun does with a
// user's .c file: whatever the bytes, CompileToIR returns a module or an
// error, and never panics. Seeds: the differential fuzzer's program corpus,
// every NPB workload and the numeric literals of TestNumberLiterals. Run
// with:
//
//	go test -run '^$' -fuzz FuzzCompile ./internal/minic
func FuzzCompile(f *testing.F) {
	corpus, err := filepath.Glob(filepath.Join("..", "fuzz", "testdata", "*.c"))
	if err != nil || len(corpus) == 0 {
		f.Fatalf("no program corpus under ../fuzz/testdata (%v)", err)
	}
	for _, path := range corpus {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, b := range npb.All {
		src, err := npb.Source(b, npb.ClassS, 1)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src.Code)
	}
	for _, src := range minic.LiteralSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, code string) {
		m, err := minic.CompileToIR("fuzz", minic.Source{Name: "fuzz.c", Code: code})
		if m == nil && err == nil {
			t.Fatal("neither a module nor an error")
		}
	})
}
