package fuzz

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seedCorpus lists the generator seeds committed as seed-NNN.c. They were
// chosen so the corpus collectively covers every generator feature —
// floats, pointer aliasing, thread spawn/join, locks, malloc, and deep
// recursion (seeds 12 and 57 recurse 25+ frames) — while keeping replay
// fast. Regenerate the files with:
//
//	FUZZ_REGEN_CORPUS=1 go test ./internal/fuzz -run TestRegenerateSeedCorpus
var seedCorpus = []int64{1, 3, 4, 5, 6, 7, 9, 12, 22, 23, 39, 57}

// TestRegenerateSeedCorpus rewrites the seed-NNN.c corpus entries from
// their generator seeds. It is a maintenance tool, gated behind an env var
// so a normal test run never touches the working tree.
func TestRegenerateSeedCorpus(t *testing.T) {
	if os.Getenv("FUZZ_REGEN_CORPUS") == "" {
		t.Skip("set FUZZ_REGEN_CORPUS=1 to rewrite the seed corpus")
	}
	for _, s := range seedCorpus {
		path := filepath.Join("testdata", fmt.Sprintf("seed-%03d.c", s))
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(GenerateSource(s)), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
	}
}

// TestCorpusReplay pushes every committed corpus entry — generator seeds
// and reduced crash repros alike — through the full five-way oracle. All
// modes must stay byte-identical forever; this is the regression net that
// keeps once-fixed divergences fixed.
func TestCorpusReplay(t *testing.T) {
	files, err := ListCorpus("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("corpus has %d entries, want at least 10", len(files))
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			v, err := RunSource(string(data))
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if !v.Ref().OK {
				t.Fatalf("reference run failed (exit %d)", v.Ref().Exit)
			}
			if v.Diverged {
				t.Errorf("diverged:\n  %s", strings.Join(v.Diffs, "\n  "))
			}
		})
	}
}

// TestCorpusMatchesSeeds pins each seed-NNN.c file to its generator: the
// committed bytes must equal GenerateSource of the seed in its header, so
// generator changes that would silently invalidate the corpus fail loudly
// (fix: regenerate, or freeze the old program under a different name).
func TestCorpusMatchesSeeds(t *testing.T) {
	for _, s := range seedCorpus {
		path := filepath.Join("testdata", fmt.Sprintf("seed-%03d.c", s))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		seed, _ := ParseHeader(string(data))
		if seed != s {
			t.Errorf("%s: header seed %d != filename seed %d", path, seed, s)
		}
		if string(data) != GenerateSource(s) {
			t.Errorf("%s: content no longer matches GenerateSource(%d); regenerate with FUZZ_REGEN_CORPUS=1", path, s)
		}
	}
}

// TestCorpusFeatureCoverage asserts the committed seed corpus exercises
// every generator feature at least once.
func TestCorpusFeatureCoverage(t *testing.T) {
	have := map[string]int{}
	for _, s := range seedCorpus {
		for _, f := range Generate(s).Features {
			have[f]++
		}
	}
	for _, want := range []string{
		FeatFloats, FeatPointers, FeatArrays, FeatThreads,
		FeatRecursion, FeatMalloc, FeatLocks,
	} {
		if have[want] == 0 {
			t.Errorf("no seed-corpus entry exercises feature %q", want)
		}
	}
}
