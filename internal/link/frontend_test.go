package link_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"heterodc/internal/compiler"
	"heterodc/internal/link"
	"heterodc/internal/minic"
)

// buildImage is build for any goroutine: it returns the error instead of
// failing the test.
func buildImage(name string, src minic.Source) (*link.Image, error) {
	mod, err := minic.CompileToIR(name, src)
	if err != nil {
		return nil, err
	}
	art, err := compiler.Compile(mod, compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return link.Link(name, art, link.Options{Aligned: true})
}

// TestBuildRetainsNothing: the toolchain keeps nothing from one build to
// the next. Building the toolchain benchmark's 36 NPB images and dropping
// them leaves the live heap where it was, within 64 KiB; a cache, a free
// list or a sync.Pool kept across builds would show here. The builds run
// with the collector off (about 80 MB), so that a pool's contents are
// still in its victim cache, as the benchmark's one measuring collection
// finds them, and not dropped by collections between builds.
func TestBuildRetainsNothing(t *testing.T) {
	srcs := goldenSources(t)[:36] // the NPB builds; the corpus follows
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, gs := range srcs {
		if _, err := buildImage(gs.name, gs.src); err != nil {
			t.Fatalf("%s: %v", gs.name, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(srcs) // the sources are not the builds' to free
	const slack = 64 << 10
	after := ms.HeapAlloc
	t.Logf("live heap %d bytes before %d builds, %d after", before, len(srcs), after)
	if after > before+slack {
		t.Errorf("live heap %d bytes after %d builds, %d before: %d retained, allowed %d",
			after, len(srcs), before, after-before, slack)
	}
}

// TestConcurrentBuildsMatchGolden: four goroutines build the golden set at
// once and every image matches its recorded digest, so the toolchain
// shares no mutable state between builds. Run it under -race.
func TestConcurrentBuildsMatchGolden(t *testing.T) {
	golden := readToolchainGolden(t)
	srcs := goldenSources(t)
	const workers = 4
	errs := make([][]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range srcs {
				gs := srcs[(i+w*len(srcs)/workers)%len(srcs)] // each worker starts elsewhere
				img, err := buildImage(gs.name, gs.src)
				if err != nil {
					errs[w] = append(errs[w], fmt.Errorf("%s: %v", gs.name, err))
					continue
				}
				if got := fmt.Sprintf("%016x", imageDigest(img)); got != golden[gs.name] {
					errs[w] = append(errs[w], fmt.Errorf("%s: image digest %s, recorded %s", gs.name, got, golden[gs.name]))
				}
			}
		}()
	}
	wg.Wait()
	for w, es := range errs {
		for _, err := range es {
			t.Errorf("worker %d: %v", w, err)
		}
	}
}
