package npb

import (
	"runtime"
	"testing"

	"heterodc/internal/core"
	"heterodc/internal/link"
)

// A loaded image costs the code, addresses, stackmaps and data its cores
// read. EP, IS and CG at class A — the interp workload's three images —
// retained 4.03 MB when every image kept its IR module and 64-byte
// instructions, and about 2.3 MB without the module and with 48-byte ones.
func TestClassAImageFootprint(t *testing.T) {
	const maxLiveMB = 2.6
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var imgs []*link.Image
	for _, b := range []Bench{EP, IS, CG} {
		src, err := Source(b, ClassA, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Not through Build: its cache may already hold the image.
		img, err := core.Build(string(b)+".A", src)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 1e6
	runtime.KeepAlive(imgs)
	if live > maxLiveMB {
		t.Errorf("EP, IS and CG class-A images keep %.2f MB live, want at most %.1f", live, maxLiveMB)
	}
	t.Logf("live heap of three class-A images: %.2f MB", live)
}
