package ckpt_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"heterodc/internal/ckpt"
	"heterodc/internal/core"
	"heterodc/internal/fault"
	"heterodc/internal/kernel"
	"heterodc/internal/npb"
	"heterodc/internal/trace"
)

// tortureSrc exercises everything a checkpoint must preserve: pointers into
// the stack, heap data, globals, floats in callee-saved registers,
// recursion, byte arrays and the process RNG. Sized so the exhaustive
// every-point torture stays fast.
const tortureSrc = `
long gcounter = 0;
double gsum = 0.0;

long helper(long *p, long depth) {
	long local[4];
	local[0] = *p + depth;
	local[1] = local[0] * 3;
	if (depth > 0) {
		long r = helper(&local[1], depth - 1);
		return r + local[0];
	}
	return local[1];
}

double fwork(long n) {
	double acc = 1.0;
	for (long i = 1; i <= n; i++) {
		acc += sqrt((double)i) / (double)n;
		gsum += acc * 0.001;
	}
	return acc;
}

long main(void) {
	long seed = 7;
	long *heap = (long*)malloc(64 * 8);
	for (long i = 0; i < 64; i++) heap[i] = i * i + 1;
	char name[16];
	name[0] = 'c'; name[1] = 'k'; name[2] = 0;

	long total = 0;
	for (long round = 0; round < 3; round++) {
		total += helper(&seed, 4);
		double f = fwork(90);
		total += (long)(f * 100.0);
		total += heap[round * 7 % 64];
		total += xrand() % 1000;
		gcounter += round;
		seed = (seed * 31 + round) % 1000;
	}
	print_str(name);
	print_char(' ');
	print_i64_ln(total);
	print_i64_ln(gcounter);
	print_i64_ln((long)(gsum * 10.0));
	free((char*)heap);
	return 0;
}
`

// TestCheckpointRestoreTortureEveryPoint is the subsystem's core invariant:
// checkpoint at EVERY migration point, restore EVERY image onto BOTH ISAs,
// and each restored run's completed output is byte-identical to the
// uninterrupted native run.
func TestCheckpointRestoreTortureEveryPoint(t *testing.T) {
	img, err := core.Build("ckpt-torture", core.Src("torture.c", tortureSrc))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ref, err := core.Run(img, core.NodeX86)
	if err != nil {
		t.Fatalf("ref: %v", err)
	}
	refOut := string(ref.Output)
	if !strings.HasPrefix(refOut, "ck ") {
		t.Fatalf("unexpected reference output %q", refOut)
	}

	for _, start := range []int{core.NodeX86, core.NodeARM} {
		cl := core.NewTestbed()
		p, err := cl.Spawn(img, start)
		if err != nil {
			t.Fatalf("spawn: %v", err)
		}
		var images [][]byte
		cl.OnCheckpoint = func(ev kernel.CheckpointEvent) {
			images = append(images, ckpt.Encode(ev.Snap))
		}
		cl.SetCheckpointPolicy(p, kernel.CkptPolicy{EveryPoints: 1})
		if _, err := cl.RunProcess(p); err != nil {
			t.Fatalf("checkpointed run(start=%d): %v", start, err)
		}
		// Checkpointing must not perturb the run's own output.
		if string(p.Output()) != refOut {
			t.Fatalf("checkpointed run(start=%d) output diverged:\n got  %q\n want %q",
				start, p.Output(), refOut)
		}
		if len(images) < 20 {
			t.Fatalf("start=%d: only %d checkpoints for an every-point policy", start, len(images))
		}

		for i, data := range images {
			snap, err := ckpt.Decode(data)
			if err != nil {
				t.Fatalf("decode image %d: %v", i, err)
			}
			for _, node := range []int{core.NodeX86, core.NodeARM} {
				cl2 := core.NewTestbed()
				p2, err := cl2.RestoreProcess(img, snap, node)
				if err != nil {
					t.Fatalf("restore image %d on node %d: %v", i, node, err)
				}
				if _, err := cl2.RunProcess(p2); err != nil {
					t.Fatalf("restored run (image %d, node %d): %v", i, node, err)
				}
				if string(p2.Output()) != refOut {
					t.Fatalf("image %d restored on node %d diverged:\n got  %q\n want %q",
						i, node, p2.Output(), refOut)
				}
			}
		}
		t.Logf("start=%d: %d images, each restored to completion on both ISAs", start, len(images))
	}
}

// TestImageRoundTripAndCorruption: Encode/Decode is lossless and every
// section is checksummed — any corrupted byte is detected.
func TestImageRoundTripAndCorruption(t *testing.T) {
	snap := tortureSnapshot(t)

	data := ckpt.Encode(snap)
	back, err := ckpt.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatal("snapshot did not survive an encode/decode round trip")
	}

	h, err := ckpt.ReadHeader(data)
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	if h.Version != ckpt.Version || len(h.Sections) != 5 {
		t.Fatalf("header: version %d, %d sections", h.Version, len(h.Sections))
	}
	for _, s := range h.Sections {
		if !s.OK {
			t.Errorf("section %s checksum reported bad on a pristine image", s.Tag)
		}
	}

	for i, bad := range damagedImages(data) {
		if _, err := ckpt.Decode(bad); err == nil {
			t.Errorf("damaged image %d (of %d bytes) went undetected", i, len(bad))
		}
	}
}

// tortureSnapshot forces a checkpoint of the torture program at its first
// migration point and returns the snapshot.
func tortureSnapshot(tb testing.TB) *kernel.Snapshot {
	tb.Helper()
	img, err := core.Build("ckpt-rt", core.Src("torture.c", tortureSrc))
	if err != nil {
		tb.Fatalf("build: %v", err)
	}
	cl := core.NewTestbed()
	p, err := cl.Spawn(img, core.NodeX86)
	if err != nil {
		tb.Fatalf("spawn: %v", err)
	}
	var snap *kernel.Snapshot
	cl.OnCheckpoint = func(ev kernel.CheckpointEvent) {
		if snap == nil {
			snap = ev.Snap
		}
	}
	if err := cl.RequestCheckpoint(p); err != nil {
		tb.Fatalf("request: %v", err)
	}
	for snap == nil {
		if !cl.Step() {
			tb.Fatal("cluster drained before the forced checkpoint fired")
		}
	}
	return snap
}

// damagedImages returns data with one bit flipped at each of five offsets
// (magic, version, first section header, mid-payload, last byte) and with
// its last three bytes cut off.
func damagedImages(data []byte) [][]byte {
	var out [][]byte
	for _, off := range []int{0, 5, 16, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		out = append(out, bad)
	}
	return append(out, data[:len(data)-3])
}

// pompSrc: multithreaded worker pool with barriers and joins, so snapshots
// capture parked workers and a join-blocked main thread together.
const pompSrc = `
long nthreads = 2;
long partial[64];
double fpartial[64];

long worker(long tid) {
	long sense = 0;
	long sum = 0;
	double facc = 0.0;
	for (long round = 0; round < 2; round++) {
		for (long i = tid; i < 900; i += nthreads) {
			sum += i % 97;
			facc += sqrt((double)(i + 1));
		}
		sense = barrier_wait(sense);
	}
	partial[tid] = sum;
	fpartial[tid] = facc;
	return sum;
}

long main(void) {
	long total = pomp_run(worker, nthreads);
	long check = 0;
	double fcheck = 0.0;
	for (long i = 0; i < nthreads; i++) {
		check += partial[i];
		fcheck += fpartial[i];
	}
	print_i64_ln(total);
	print_i64_ln(check);
	print_i64_ln((long)fcheck);
	return 0;
}
`

// TestMultithreadedCheckpointRestore: periodic checkpoints of a threaded
// process quiesce all threads (parked or join-blocked); sampled images
// restore on both ISAs and finish with identical output.
func TestMultithreadedCheckpointRestore(t *testing.T) {
	img, err := core.Build("ckpt-pomp", core.Src("pomp.c", pompSrc))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ref, err := core.Run(img, core.NodeX86)
	if err != nil {
		t.Fatalf("ref: %v", err)
	}
	refOut := string(ref.Output)

	cl := core.NewTestbed()
	p, err := cl.Spawn(img, core.NodeX86)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	var images [][]byte
	var multi int
	cl.OnCheckpoint = func(ev kernel.CheckpointEvent) {
		live := 0
		for i := range ev.Snap.Threads {
			if ev.Snap.Threads[i].Status != kernel.ThreadExited {
				live++
			}
		}
		if live > 1 {
			multi++
		}
		images = append(images, ckpt.Encode(ev.Snap))
	}
	cl.SetCheckpointPolicy(p, kernel.CkptPolicy{EveryPoints: 15})
	if _, err := cl.RunProcess(p); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if string(p.Output()) != refOut {
		t.Fatalf("checkpointed run output diverged:\n got  %q\n want %q", p.Output(), refOut)
	}
	if len(images) < 4 {
		t.Fatalf("only %d checkpoints", len(images))
	}
	if multi == 0 {
		t.Fatal("no snapshot ever captured more than one live thread")
	}

	stride := len(images)/6 + 1
	for i := 0; i < len(images); i += stride {
		snap, err := ckpt.Decode(images[i])
		if err != nil {
			t.Fatalf("decode image %d: %v", i, err)
		}
		for _, node := range []int{core.NodeX86, core.NodeARM} {
			cl2 := core.NewTestbed()
			p2, err := cl2.RestoreProcess(img, snap, node)
			if err != nil {
				t.Fatalf("restore image %d on node %d: %v", i, node, err)
			}
			if _, err := cl2.RunProcess(p2); err != nil {
				t.Fatalf("restored run (image %d, node %d): %v", i, node, err)
			}
			if string(p2.Output()) != refOut {
				t.Fatalf("image %d on node %d diverged:\n got  %q\n want %q",
					i, node, p2.Output(), refOut)
			}
		}
	}
}

// TestNPBCrossISARestoreTorture: for NPB CG and IS, checkpoint periodically
// across a mid-run container migration (so images capture ARM-resident
// state), then restore sampled images on both ISAs — completed output must
// be byte-identical to the uninterrupted native run.
func TestNPBCrossISARestoreTorture(t *testing.T) {
	for _, b := range []npb.Bench{npb.CG, npb.IS} {
		b := b
		t.Run(string(b), func(t *testing.T) {
			img, err := npb.Build(b, npb.ClassS, 1)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			ref, err := core.Run(img, core.NodeX86)
			if err != nil {
				t.Fatalf("ref: %v", err)
			}
			refOut := string(ref.Output)

			cl := core.NewTestbed()
			p, err := cl.Spawn(img, core.NodeX86)
			if err != nil {
				t.Fatalf("spawn: %v", err)
			}
			var images [][]byte
			cl.OnCheckpoint = func(ev kernel.CheckpointEvent) {
				images = append(images, ckpt.Encode(ev.Snap))
			}
			cl.SetCheckpointPolicy(p, kernel.CkptPolicy{EverySeconds: ref.Seconds / 10})
			migrated := false
			for {
				if exited, _ := p.Exited(); exited {
					break
				}
				if !migrated && cl.Time() >= 0.4*ref.Seconds {
					cl.RequestProcessMigration(p, core.NodeARM)
					migrated = true
				}
				if !cl.Step() {
					t.Fatal("cluster drained early")
				}
			}
			if err := p.Err(); err != nil {
				t.Fatalf("checkpointed run: %v", err)
			}
			if string(p.Output()) != refOut {
				t.Fatalf("checkpointed run output diverged")
			}
			if len(images) < 3 {
				t.Fatalf("only %d checkpoints", len(images))
			}

			stride := len(images)/4 + 1
			for i := 0; i < len(images); i += stride {
				snap, err := ckpt.Decode(images[i])
				if err != nil {
					t.Fatalf("decode image %d: %v", i, err)
				}
				for _, node := range []int{core.NodeX86, core.NodeARM} {
					cl2 := core.NewTestbed()
					p2, err := cl2.RestoreProcess(img, snap, node)
					if err != nil {
						t.Fatalf("restore image %d on node %d: %v", i, node, err)
					}
					if _, err := cl2.RunProcess(p2); err != nil {
						t.Fatalf("restored run (image %d, node %d): %v", i, node, err)
					}
					if !bytes.Equal(p2.Output(), ref.Output) {
						t.Fatalf("image %d on node %d diverged from native output", i, node)
					}
				}
			}
			t.Logf("%s: %d images, sampled restores identical on both ISAs", b, len(images))
		})
	}
}

// TestPermanentCrashRecovery: a permanent node-1 crash strands the job
// mid-run; the manager restores it from its latest image on node 0 and the
// completed output matches the fault-free baseline.
func TestPermanentCrashRecovery(t *testing.T) {
	img, err := npb.Build(npb.IS, npb.ClassS, 1)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ref, err := core.Run(img, core.NodeX86)
	if err != nil {
		t.Fatalf("ref: %v", err)
	}

	cl := core.NewTestbed()
	log := trace.NewEventLog(4096)
	cl.SetTracer(log)
	cl.InjectFaults(fault.Plan{
		Seed:    11,
		Crashes: []fault.Crash{{Node: 1, At: 0.55 * ref.Seconds, RecoverAt: 0}}, // never recovers
	})
	m := ckpt.NewManager(cl)
	p, err := cl.Spawn(img, core.NodeX86)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	m.Track(p, img, kernel.CkptPolicy{EverySeconds: 0.08 * ref.Seconds})

	migrated := false
	for {
		cur := m.Current(p)
		if exited, _ := cur.Exited(); exited && m.Current(p) == cur {
			break
		}
		if !migrated && cl.Time() >= 0.25*ref.Seconds {
			cl.RequestProcessMigration(m.Current(p), core.NodeARM)
			migrated = true
		}
		if !cl.Step() {
			t.Fatal("cluster drained before the job finished")
		}
	}
	final := m.Current(p)
	if err := final.Err(); err != nil {
		t.Fatalf("final incarnation failed: %v", err)
	}
	if final == p {
		t.Fatal("job finished as the original incarnation; the crash never forced a restore")
	}
	if !bytes.Equal(final.Output(), ref.Output) {
		t.Fatalf("recovered output diverged:\n got  %q\n want %q", final.Output(), ref.Output)
	}
	st := m.Stats()
	if st.Restores != 1 {
		t.Errorf("restores = %d, want 1", st.Restores)
	}
	if st.ImagesWritten < 2 || st.BytesWritten == 0 {
		t.Errorf("images=%d bytes=%d; expected periodic captures before the crash",
			st.ImagesWritten, st.BytesWritten)
	}
	if st.WorkReplayedSeconds <= 0 {
		t.Errorf("work replayed %.6fs, want > 0", st.WorkReplayedSeconds)
	}
	if log.Count("ckpt") < 2 || log.Count("restore") != 1 || log.Count("proc-lost") != 1 {
		t.Errorf("trace: ckpt=%d restore=%d proc-lost=%d",
			log.Count("ckpt"), log.Count("restore"), log.Count("proc-lost"))
	}
	// The original incarnation carries the loss marker.
	if p.Err() == nil {
		t.Error("original incarnation has no error despite being stranded")
	}
}

// TestThreadFrames: the inspector's frame walk recovers a sensible call
// chain from the image's own pages.
func TestThreadFrames(t *testing.T) {
	img, err := core.Build("ckpt-frames", core.Src("torture.c", tortureSrc))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cl := core.NewTestbed()
	p, err := cl.Spawn(img, core.NodeX86)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	var snap *kernel.Snapshot
	cl.OnCheckpoint = func(ev kernel.CheckpointEvent) {
		if snap == nil {
			snap = ev.Snap
		}
	}
	cl.SetCheckpointPolicy(p, kernel.CkptPolicy{EveryPoints: 25})
	for snap == nil {
		if !cl.Step() {
			t.Fatal("drained before a checkpoint")
		}
	}
	rec := &snap.Threads[0]
	frames, err := ckpt.ThreadFrames(img, snap, rec)
	if err != nil {
		t.Fatalf("frames: %v", err)
	}
	if len(frames) < 2 {
		t.Fatalf("got %d frames, want at least the point function and a caller", len(frames))
	}
	foundMain := false
	for _, f := range frames {
		if f.Func == "main" || strings.Contains(f.Func, "__start") {
			foundMain = true
		}
	}
	if !foundMain {
		t.Errorf("frame walk never reached main/__start: %+v", frames)
	}
}
