package main

import (
	"fmt"

	"heterodc/internal/core"
	"heterodc/internal/isa"
	"heterodc/internal/link"
	"heterodc/internal/npb"
)

// interpBenches span the memory behaviours the interpreter sees: EP is
// compute-bound, IS streams past the modelled L1, CG sits between.
var interpBenches = []npb.Bench{npb.EP, npb.IS, npb.CG}

// setupInterp builds EP, IS and CG (class A, 1 thread) from source. The
// seed orders the six (program, ISA) runs of an op.
func setupInterp(seed uint64) (func(*opCtx) error, error) {
	type run struct {
		name string
		img  *link.Image
		arch isa.Arch
		want string
	}
	var runs []run
	for _, b := range interpBenches {
		img, err := buildNPB(b, npb.ClassA, 1)
		if err != nil {
			return nil, err
		}
		want, err := expectedOutput(img.Name)
		if err != nil {
			return nil, err
		}
		for _, arch := range isa.Arches {
			runs = append(runs, run{fmt.Sprintf("%s on %s", img.Name, arch), img, arch, want})
		}
	}
	seeded(seed, "interp").Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })

	// Each run gets a fresh machine, so the modelled caches start empty.
	return func(c *opCtx) error {
		for _, r := range runs {
			cl := core.NewSingle(r.arch)
			er := c.engine(cl, "seq")
			p, err := cl.Spawn(r.img, 0)
			if err != nil {
				return err
			}
			if err := er.drive(func() error { return runToExit(cl, p, r.name, r.want) }); err != nil {
				return err
			}
			c.makespan += cl.Time()
		}
		return nil
	}, nil
}
