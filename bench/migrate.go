package main

import (
	"fmt"
	"sort"

	"heterodc/internal/ckpt"
	"heterodc/internal/core"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/link"
	"heterodc/internal/npb"
)

const bounceMigrations = 4000

// bounceSrc recurses to a seeded depth of 10-29 frames and migrates to the
// other machine at each leaf, so every migration transforms a deep stack.
// On a single machine migrate(1) names no node and is a no-op, which gives
// the unmigrated reference.
func bounceSrc(seed uint64) string {
	return fmt.Sprintf(`
long state = %d;
long draw(void) {
	state = (state * 1103515245 + 12345) & 2147483647;
	return state;
}
long deep(long n, long acc) {
	long buf[8];
	buf[0] = acc;
	if (n == 0) {
		migrate(1 - getnode());
		return buf[0];
	}
	return deep(n - 1, acc + n) + buf[0];
}
long main(void) {
	long total = 0;
	for (long i = 0; i < %d; i++) total += deep(10 + draw() %% 20, i);
	print_i64_ln(total);
	return 0;
}`, subSeed(seed, "bounce")&0x7fffffff, bounceMigrations)
}

// pingpongSrc is the DSM's worst case: two threads on different ISAs
// adding to one word, so its page changes owner on almost every access.
const pingpongSrc = `
long shared_word = 0;
long worker(long tid) {
	if (tid == 1) migrate(1);
	for (long i = 0; i < 20000; i++) {
		__atomic_add(&shared_word, 1);
		yield();
	}
	return 0;
}
long main(void) {
	long t = spawn(worker, 1);
	worker(0);
	join(t);
	print_i64_ln(shared_word);
	return 0;
}`

// setupMigrate builds the three programs from source and takes the
// reference runs: bounce unmigrated on one machine (its depths come from
// the seed, so its total is not in expected/), CG.S.t4 for the instant at
// which the container op migrates and checkpoints.
func setupMigrate(seed uint64) (func(*opCtx) error, error) {
	bounce, err := core.Build("bounce", core.Src("bounce.c", bounceSrc(seed)))
	if err != nil {
		return nil, err
	}
	single := core.NewSingle(isa.X86)
	bp, err := single.Spawn(bounce, 0)
	if err != nil {
		return nil, err
	}
	if code, err := single.RunProcess(bp); err != nil || code != 0 {
		return nil, fmt.Errorf("bounce reference: exit %d: %v", code, err)
	}
	bounceWant := string(bp.Output())

	pingpong, err := core.Build("pingpong", core.Src("pingpong.c", pingpongSrc))
	if err != nil {
		return nil, err
	}
	pingpongWant, err := expectedOutput("pingpong")
	if err != nil {
		return nil, err
	}

	cg, err := buildNPB(npb.CG, npb.ClassS, 4)
	if err != nil {
		return nil, err
	}
	cgWant, err := expectedOutput(cg.Name)
	if err != nil {
		return nil, err
	}
	ref, err := core.Run(cg, core.NodeX86)
	if err != nil {
		return nil, err
	}
	if err := checkGuest("container reference", ref.ExitCode, ref.Output, cgWant); err != nil {
		return nil, err
	}

	return func(c *opCtx) error {
		if err := runBounce(c, bounce, bounceWant); err != nil {
			return err
		}
		if err := runPingpong(c, pingpong, pingpongWant); err != nil {
			return err
		}
		return runContainer(c, cg, cgWant, ref.Seconds)
	}, nil
}

// noteDSM adds p's coherence counters, summed over the two machines.
func noteDSM(c *opCtx, p *kernel.Process) {
	for node := 0; node < 2; node++ {
		st := p.Space.Stats(node)
		c.note("dsm.page_in", float64(st.PageIn))
		c.note("dsm.invalidates", float64(st.Invalidates))
		c.note("dsm.read_faults", float64(st.ReadFaults))
		c.note("dsm.write_faults", float64(st.WriteFaults))
	}
}

func runBounce(c *opCtx, img *link.Image, want string) error {
	cl := core.NewTestbed()
	er := c.engine(cl, "seq")
	var xform []float64
	frames := 0
	cl.OnMigration = func(ev kernel.MigrationEvent) {
		xform = append(xform, ev.XformSeconds*1e6)
		frames += ev.Stats.Frames
	}
	p, err := cl.Spawn(img, core.NodeX86)
	if err != nil {
		return err
	}
	if err := er.drive(func() error { return runToExit(cl, p, "bounce", want) }); err != nil {
		return err
	}
	if len(xform) != bounceMigrations {
		return fmt.Errorf("bounce: %d migrations, want %d", len(xform), bounceMigrations)
	}
	sort.Float64s(xform)
	c.note("sim_xform_us", xform[len(xform)/2])
	c.note("xform.sim_p99_us", xform[len(xform)*99/100])
	c.note("xform.frames", float64(frames))
	c.makespan += cl.Time()
	noteDSM(c, p)
	return nil
}

func runPingpong(c *opCtx, img *link.Image, want string) error {
	cl := core.NewTestbed()
	er := c.engine(cl, "seq")
	p, err := cl.Spawn(img, core.NodeX86)
	if err != nil {
		return err
	}
	if err := er.drive(func() error { return runToExit(cl, p, "pingpong", want) }); err != nil {
		return err
	}
	c.makespan += cl.Time()
	noteDSM(c, p)
	return nil
}

// runContainer moves a 4-thread process to the ARM machine at 30 % of its
// reference runtime, checkpoints it there at 60 %, and restores the image
// onto x86 in a fresh testbed, where it runs to exit.
func runContainer(c *opCtx, img *link.Image, want string, refSeconds float64) error {
	cl := core.NewTestbed()
	er := c.engine(cl, "seq")
	p, err := cl.Spawn(img, core.NodeX86)
	if err != nil {
		return err
	}
	var snap *kernel.Snapshot
	cl.OnCheckpoint = func(ev kernel.CheckpointEvent) { snap = ev.Snap }
	moves := 0
	cl.OnMigration = func(kernel.MigrationEvent) { moves++ }
	err = er.drive(func() error {
		moved, requested := false, false
		for snap == nil {
			if done, _ := p.Exited(); done {
				return fmt.Errorf("container: exited before the checkpoint fired")
			}
			if !moved && cl.Time() >= 0.3*refSeconds {
				cl.RequestProcessMigration(p, core.NodeARM)
				moved = true
			}
			if !requested && cl.Time() >= 0.6*refSeconds {
				if err := cl.RequestCheckpoint(p); err != nil {
					return err
				}
				requested = true
			}
			if !cl.Step() {
				return fmt.Errorf("container: cluster drained before the checkpoint fired")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if moves == 0 {
		return fmt.Errorf("container: no thread migrated before the checkpoint")
	}
	noteDSM(c, p)

	var data []byte
	var decoded *kernel.Snapshot
	c.stage("ckpt.Encode", func() { data = ckpt.Encode(snap) })
	c.stage("ckpt.Decode", func() { decoded, err = ckpt.Decode(data) })
	if err != nil {
		return fmt.Errorf("container: %w", err)
	}
	fresh := core.NewTestbed()
	fer := c.engine(fresh, "seq")
	var rp *kernel.Process
	c.stage("ckpt.RestoreProcess", func() { rp, err = fresh.RestoreProcess(img, decoded, core.NodeX86) })
	if err != nil {
		return fmt.Errorf("container: %w", err)
	}
	if err := fer.drive(func() error { return runToExit(fresh, rp, "restored container", want) }); err != nil {
		return err
	}
	noteDSM(c, rp)
	c.note("sched.migrations", float64(moves))
	c.note("ckpt.image_kb", float64(len(data))/1024)
	c.note("ckpt.pages", float64(len(snap.Pages)))
	c.makespan += fresh.Time()
	return nil
}
