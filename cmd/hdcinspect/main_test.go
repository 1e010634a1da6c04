package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"heterodc/internal/ckpt"
	"heterodc/internal/cmdtest"
	"heterodc/internal/kernel"
	"heterodc/internal/minic"
	"heterodc/internal/npb"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

func writeFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// cleanFailure is what a bad input must produce: a non-zero exit with the
// command's own message, not a Go panic.
func cleanFailure(t *testing.T, what, stderr string, code int) {
	t.Helper()
	if code == 0 {
		t.Errorf("%s: exit 0", what)
	}
	if !strings.Contains(stderr, "hdcinspect:") || strings.Contains(stderr, "panic") || strings.Contains(stderr, "goroutine ") {
		t.Errorf("%s: exit %d with stderr %q, want one hdcinspect: line", what, code, stderr)
	}
}

// migratedPair runs IS class S on the testbed with a migration to node 1
// requested at once and checkpoints every 50 µs, and returns the cluster
// mid-run with the manager that holds the images.
func migratedPair(t *testing.T) (*kernel.Cluster, *ckpt.Manager, *kernel.Process) {
	t.Helper()
	img, err := npb.Build("is", 'S', 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := kernel.NewTestbed()
	mgr := ckpt.NewManager(cl)
	p, err := cl.Spawn(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Track(p, img, kernel.CkptPolicy{EverySeconds: 50e-6})
	if err := cl.RequestMigration(p, 0, 1); err != nil {
		t.Fatal(err)
	}
	return cl, mgr, p
}

func TestGroupsDump(t *testing.T) {
	cl, _, p := migratedPair(t)
	// The process's footprint spans both nodes once it has moved: that is the
	// fold the dump explains.
	var dump *kernel.GroupDump
	for dump == nil {
		if !cl.Step() {
			t.Fatal("IS finished without its footprint ever folding the two nodes")
		}
		if done, _ := p.Exited(); done {
			t.Fatal("IS exited without its footprint ever folding the two nodes")
		}
		if gs, merges := cl.GroupReport(); len(gs) == 1 {
			dump = &kernel.GroupDump{Time: cl.Time(), Nodes: cl.NumNodes(), Groups: gs, Merges: merges}
		}
	}
	data, err := json.Marshal(dump)
	if err != nil {
		t.Fatal(err)
	}
	out, errOut, code := cmdtest.Run(t, "-groups", writeFile(t, "groups.json", data))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"2 nodes in 1 groups", "group 0   [0 1]", "folded by:", "merges by layer:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}

	for what, bad := range map[string]string{
		"truncated JSON":         string(data[:len(data)/2]),
		"not a dump":             `{"hello": "world"}`,
		"node out of range":      `{"time":0,"nodes":2,"groups":[[0,7]],"merges":[]}`,
		"merge out of range":     `{"time":0,"nodes":2,"groups":[[0,1]],"merges":[{"a":5,"b":1,"layer":"fabric"}]}`,
		"negative node in merge": `{"time":0,"nodes":2,"groups":[[0,1]],"merges":[{"a":0,"b":-1,"layer":"fabric"}]}`,
	} {
		_, errOut, code := cmdtest.Run(t, "-groups", writeFile(t, "bad.json", []byte(bad)))
		cleanFailure(t, what, errOut, code)
	}
}

func TestCkptImage(t *testing.T) {
	cl, mgr, p := migratedPair(t)
	for mgr.LatestImage(p) == nil {
		if !cl.Step() {
			t.Fatal("IS finished before its first checkpoint")
		}
	}
	image := mgr.LatestImage(p)
	path := writeFile(t, "is.ckpt", image)

	out, errOut, code := cmdtest.Run(t, "-ckpt", path, "-bench", "is", "-class", "S", "-pages")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"checkpoint image", "format v", "process: img", "resident pages", "thread 0:", "#0 "} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "CORRUPT") || strings.Contains(out, "frame walk failed") {
		t.Errorf("a good image reads as damaged:\n%s", out)
	}

	// Damage of every kind the file can suffer: cut short, a flipped bit in
	// the middle of a section, not an image at all, no file.
	flipped := append([]byte(nil), image...)
	flipped[len(flipped)/2] ^= 0x40
	for what, bad := range map[string][]byte{
		"truncated":  image[:len(image)/3],
		"bit flip":   flipped,
		"text file":  []byte("this is not a checkpoint\n"),
		"empty file": {},
	} {
		_, errOut, code := cmdtest.Run(t, "-ckpt", writeFile(t, "bad.ckpt", bad))
		cleanFailure(t, what, errOut, code)
	}
	_, errOut, code = cmdtest.Run(t, "-ckpt", filepath.Join(t.TempDir(), "missing.ckpt"))
	cleanFailure(t, "missing file", errOut, code)
}

// The image table lists every global of the program at its size in the IR
// the image was built from.
func TestImageListing(t *testing.T) {
	out, errOut, code := cmdtest.Run(t, "-bench", "is")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	_, globals, ok := strings.Cut(out, "\nglobal ")
	if !ok {
		t.Fatalf("no global table:\n%s", out)
	}
	listed := map[string]string{}
	for _, line := range strings.Split(globals, "\n")[1:] {
		if f := strings.Fields(line); len(f) == 3 {
			listed[f[0]] = f[2]
		}
	}
	src, err := npb.Source(npb.IS, npb.ClassS, 1)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := minic.CompileToIR("is", src)
	if err != nil {
		t.Fatal(err)
	}
	g := mod.Global("keys")
	if g == nil || g.Size == 0 {
		t.Fatalf("IS has no sized global keys: %+v", g)
	}
	for _, g := range mod.Globals {
		if got, want := listed[g.Name], strconv.FormatInt(g.Size, 10); got != want {
			t.Errorf("global %s listed at %q bytes, IR says %s", g.Name, got, want)
		}
	}
}
