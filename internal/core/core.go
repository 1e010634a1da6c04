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
// Migration is requested with cl.RequestProcessMigration(p, core.NodeARM)
// (or per-thread via cl.RequestMigration); the thread moves at its next
// migration point, exactly as in the paper.
package core

import (
	"fmt"

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
	// Seconds is the simulated wall time at exit.
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

// Wait runs the cluster until p exits and returns its result.
func Wait(cl *kernel.Cluster, p *kernel.Process) (*Result, error) {
	if _, err := cl.RunProcess(p); err != nil {
		return nil, err
	}
	return ResultOf(p, cl.Time()), nil
}

// Job is one process Drive runs to its exit. Migrate requests the job's
// migration to node To at the first step boundary at or past simulated
// time At. That boundary is a quantum under the sequential engine and a
// window under the parallel one, so such a request is engine-grained.
type Job struct {
	P       *kernel.Process
	Migrate bool
	At      float64
	To      int
}

// Drive steps cl until every job has exited, following the incarnations
// mgr restores (nil: no checkpoint manager), and calls each (nil: none)
// before every step. It returns each job's final incarnation, in order;
// the error is a cluster that drained first.
func Drive(cl *kernel.Cluster, mgr *ckpt.Manager, jobs []Job, each func()) ([]*kernel.Process, error) {
	cur := make([]*kernel.Process, len(jobs))
	requested := make([]bool, len(jobs))
	for {
		done := true
		for i, j := range jobs {
			if cur[i] = j.P; mgr != nil {
				cur[i] = mgr.Current(j.P)
			}
			if exited, _ := cur[i].Exited(); exited {
				continue
			}
			done = false
			if j.Migrate && !requested[i] && cl.Time() >= j.At {
				cl.RequestProcessMigration(cur[i], j.To)
				requested[i] = true
			}
		}
		if done {
			return cur, nil
		}
		if each != nil {
			each()
		}
		if !cl.Step() {
			return cur, fmt.Errorf("cluster drained before exit")
		}
	}
}

// Run is the one-shot helper: build a fresh testbed, run img on node, wait.
func Run(img *link.Image, node int) (*Result, error) {
	cl := NewTestbed()
	p, err := cl.Spawn(img, node)
	if err != nil {
		return nil, err
	}
	return Wait(cl, p)
}
