// Package core is the public facade of the heterodc library: it ties the
// mini-C frontend, the multi-ISA compiler and linker, and the
// replicated-kernel cluster simulator together behind a small API.
//
// Typical use:
//
//	img, err := core.Build("app", core.Src("app.c", source))
//	cl := core.NewTestbed()
//	p, err := cl.Spawn(img, core.NodeX86)
//	res, err := core.Wait(cl, p)
//
// core.RunOn(cl, img, node) does the spawn and the wait in one call.
//
// Migration is requested with cl.RequestProcessMigration(p, core.NodeARM)
// (or per-thread via cl.RequestMigration); the thread moves at its next
// migration point, exactly as in the paper.
package core

import (
	"fmt"
	"slices"

	"heterodc/internal/ckpt"
	"heterodc/internal/compiler"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/link"
	"heterodc/internal/minic"
)

// Node indices of the reference testbed (see kernel.NewTestbed).
const (
	// NodeX86 is the Xeon-flavoured server.
	NodeX86 = 0
	// NodeARM is the X-Gene-flavoured server.
	NodeARM = 1
)

// Src builds a named mini-C source.
func Src(name, code string) minic.Source { return minic.Source{Name: name, Code: code} }

// BuildOptions configures Build.
type BuildOptions struct {
	// Compiler controls migration-point insertion.
	Compiler compiler.Options
	// Linker controls symbol alignment.
	Linker link.Options
}

// DefaultBuildOptions produce a migratable, aligned multi-ISA binary.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{
		Compiler: compiler.DefaultOptions(),
		Linker:   link.Options{Aligned: true},
	}
}

// Build compiles mini-C sources into an aligned, migratable multi-ISA image.
func Build(name string, sources ...minic.Source) (*link.Image, error) {
	return BuildWith(name, DefaultBuildOptions(), sources...)
}

// BuildWith compiles with explicit options (e.g. no migration points, or an
// unaligned baseline image).
func BuildWith(name string, opts BuildOptions, sources ...minic.Source) (*link.Image, error) {
	mod, err := minic.CompileToIR(name, sources...)
	if err != nil {
		return nil, fmt.Errorf("core: frontend: %w", err)
	}
	art, err := compiler.Compile(mod, opts.Compiler)
	if err != nil {
		return nil, fmt.Errorf("core: backend: %w", err)
	}
	img, err := link.Link(name, art, opts.Linker)
	if err != nil {
		return nil, fmt.Errorf("core: link: %w", err)
	}
	return img, nil
}

// NewTestbed builds the paper's two-server evaluation cluster.
func NewTestbed() *kernel.Cluster { return kernel.NewTestbed() }

// NewSingle builds a one-machine cluster of the given architecture (for
// native-baseline runs).
func NewSingle(arch isa.Arch) *kernel.Cluster {
	return kernel.NewCluster([]isa.Arch{arch}, kernel.DefaultInterconnect())
}

// Result summarises a finished process.
type Result struct {
	ExitCode int64
	Output   []byte
	// Seconds is the clock of the cluster step that noticed the exit: up
	// to one quantum after the exit instant, p.ExitTime().
	Seconds float64
	// Migrations counts completed thread migrations.
	Migrations int
}

// ResultOf summarises p, which has exited, at simulated time seconds.
func ResultOf(p *kernel.Process, seconds float64) *Result {
	_, code := p.Exited()
	res := &Result{ExitCode: code, Output: p.Output(), Seconds: seconds}
	for tid := int64(0); ; tid++ {
		t := p.Thread(tid)
		if t == nil {
			break
		}
		res.Migrations += t.Migrations
	}
	return res
}

// Wait runs the cluster until p exits and returns its result. It is the one
// place that decides a run's reported time.
func Wait(cl *kernel.Cluster, p *kernel.Process) (*Result, error) {
	if _, err := cl.RunProcess(p); err != nil {
		return nil, err
	}
	return ResultOf(p, cl.Time()), nil
}

// Job is one process Drive runs to its exit. Migrate requests the job's
// migration to node To in a timer firing at simulated time At, which both
// time engines apply at the same point of the run.
type Job struct {
	P       *kernel.Process
	Migrate bool
	At      float64
	To      int
}

// Drive steps cl until every job has exited, following the incarnations
// mgr restores (nil: no checkpoint manager), and calls each (nil: none)
// before every step. Migration requests fire from the timer source Drive
// installs for the run. It returns each job's final incarnation, in order;
// the error is a cluster that drained first.
func Drive(cl *kernel.Cluster, mgr *ckpt.Manager, jobs []Job, each func()) ([]*kernel.Process, error) {
	d := &driver{cl: cl, mgr: mgr, jobs: slices.Clone(jobs), cur: make([]*kernel.Process, len(jobs))}
	cl.SetTimerSource(d)
	defer cl.SetTimerSource(nil)
	for d.running() {
		if each != nil {
			each()
		}
		if !cl.Step() {
			return d.cur, fmt.Errorf("cluster drained before exit")
		}
	}
	return d.cur, nil
}

// driver is Drive's timer source: it requests each migrating job's move in
// a firing at the job's At, then clears its Migrate, unless the job has
// exited by then. cur holds each job's current incarnation.
type driver struct {
	cl   *kernel.Cluster
	mgr  *ckpt.Manager
	jobs []Job
	cur  []*kernel.Process
}

// running refreshes cur and reports whether any job has yet to exit.
func (d *driver) running() (live bool) {
	for i, j := range d.jobs {
		if d.cur[i] = j.P; d.mgr != nil {
			d.cur[i] = d.mgr.Current(j.P)
		}
		if exited, _ := d.cur[i].Exited(); !exited {
			live = true
		}
	}
	return live
}

func (d *driver) NextDue() float64 {
	t := 1e30
	for _, j := range d.jobs {
		if j.Migrate {
			t = min(t, j.At)
		}
	}
	return t
}

func (d *driver) Fire(now float64) {
	d.running()
	for i := range d.jobs {
		if j := &d.jobs[i]; j.Migrate && j.At <= now {
			j.Migrate = false
			if exited, _ := d.cur[i].Exited(); !exited {
				d.cl.RequestProcessMigration(d.cur[i], j.To)
			}
		}
	}
}

// Run is the one-shot helper: run img on node of a fresh testbed.
func Run(img *link.Image, node int) (*Result, error) { return RunOn(NewTestbed(), img, node) }

// RunOn spawns img on node of cl and waits for its exit.
func RunOn(cl *kernel.Cluster, img *link.Image, node int) (*Result, error) {
	p, err := cl.Spawn(img, node)
	if err != nil {
		return nil, err
	}
	return Wait(cl, p)
}
