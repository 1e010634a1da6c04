package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"heterodc/internal/compiler"
	"heterodc/internal/core"
	"heterodc/internal/ir"
	"heterodc/internal/isa"
	"heterodc/internal/link"
	"heterodc/internal/minic"
	"heterodc/internal/npb"
)

// toolchainBuild is one of the 36 builds of a toolchain op.
type toolchainBuild struct {
	name string
	src  minic.Source
	// oracle is ir.NewInterp's output for the module (class S, 1 thread
	// only: the reference interpreter has no threads).
	oracle string
}

// setupToolchain generates the 36 sources (every npb.All program at classes
// S and A with 1 and 4 threads, in an order the seed shuffles) and runs the
// reference interpreter over the nine single-threaded class-S modules.
func setupToolchain(seed uint64) (func(*opCtx) error, error) {
	var builds []toolchainBuild
	for _, b := range npb.All {
		for _, cls := range []npb.Class{npb.ClassS, npb.ClassA} {
			for _, threads := range []int{1, 4} {
				src, err := npb.Source(b, cls, threads)
				if err != nil {
					return nil, err
				}
				tb := toolchainBuild{name: npbName(b, cls, threads), src: src}
				if cls == npb.ClassS && threads == 1 {
					mod, err := minic.CompileToIR(tb.name, src)
					if err != nil {
						return nil, err
					}
					ip := ir.NewInterp(mod)
					if _, err := ip.Run("main"); err != nil {
						return nil, fmt.Errorf("%s: reference interpreter: %w", tb.name, err)
					}
					tb.oracle = string(ip.Output())
					want, err := expectedOutput(tb.name)
					if err != nil {
						return nil, err
					}
					if tb.oracle != want {
						return nil, fmt.Errorf("%s: reference interpreter printed %q, expected/ has %q", tb.name, tb.oracle, want)
					}
				}
				builds = append(builds, tb)
			}
		}
	}
	seeded(seed, "toolchain").Shuffle(len(builds), func(i, j int) { builds[i], builds[j] = builds[j], builds[i] })

	// verified[name] is the digest of an image whose guest output has been
	// checked; the first op fills it, every later op must rebuild the
	// identical image.
	verified := map[string]uint64{}
	return func(c *opCtx) error {
		first := len(verified) == 0
		var srcBytes, irInstrs, x86Instrs, armInstrs, callsites, imageBytes int
		for _, tb := range builds {
			var mod *ir.Module
			var art *compiler.Artifact
			var img *link.Image
			var err error
			c.stage("minic.CompileToIR", func() { mod, err = minic.CompileToIR(tb.name, tb.src) })
			if err != nil {
				return fmt.Errorf("%s: %w", tb.name, err)
			}
			srcBytes += len(minic.Prelude) + len(tb.src.Code)
			for _, f := range mod.Funcs {
				for _, bl := range f.Blocks {
					irInstrs += len(bl.Instrs)
				}
			}
			c.stage("compiler.Compile", func() { art, err = compiler.Compile(mod, compiler.DefaultOptions()) })
			if err != nil {
				return fmt.Errorf("%s: %w", tb.name, err)
			}
			for _, f := range art.Funcs[isa.X86] {
				x86Instrs += len(f.Code)
				callsites += len(f.Info.CallSites)
			}
			for _, f := range art.Funcs[isa.ARM64] {
				armInstrs += len(f.Code)
			}
			c.stage("link.Link", func() { img, err = link.Link(tb.name, art, link.Options{Aligned: true}) })
			if err != nil {
				return fmt.Errorf("%s: %w", tb.name, err)
			}
			imageBytes += imageSize(img)

			d := imageDigest(img)
			if first {
				if tb.oracle != "" {
					for _, arch := range isa.Arches {
						cl := core.NewSingle(arch)
						p, err := cl.Spawn(img, 0)
						if err != nil {
							return err
						}
						if err := runToExit(cl, p, fmt.Sprintf("%s on %s", tb.name, arch), tb.oracle); err != nil {
							return err
						}
					}
				}
				verified[tb.name] = d
			} else if d != verified[tb.name] {
				return fmt.Errorf("%s: rebuilt image differs from the verified one (digest %x, want %x)", tb.name, d, verified[tb.name])
			}
		}
		c.note("minic.src_kb", float64(srcBytes)/1024)
		c.note("minic.ir_instrs", float64(irInstrs))
		c.note("compiler.x86_instrs", float64(x86Instrs))
		c.note("compiler.arm_instrs", float64(armInstrs))
		c.note("compiler.callsites", float64(callsites))
		c.note("link.image_kb", float64(imageBytes)/1024)
		c.counts["image_kb"] = float64(imageBytes) / 1024
		return nil
	}, nil
}

// imageSize is the image's footprint: code regions and data segments of
// both ISAs, in bytes.
func imageSize(img *link.Image) int {
	n := 0
	for _, arch := range isa.Arches {
		for _, f := range img.Prog(arch).Funcs {
			n += int(f.Size)
		}
		for _, seg := range img.Data[arch] {
			n += int(seg.Size)
		}
	}
	return n
}

// imageDigest hashes everything the loader and the cores read from img.
func imageDigest(img *link.Image) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, arch := range isa.Arches {
		for _, f := range img.Prog(arch).Funcs {
			h.Write([]byte(f.Name))
			u64(f.Base)
			u64(f.Size)
			for _, in := range f.Code {
				u64(uint64(in.Op)<<32 | uint64(in.Rd)<<24 | uint64(in.Rs1)<<16 | uint64(in.Rs2)<<8 | uint64(in.Rs3))
				u64(uint64(in.Imm))
				u64(math.Float64bits(in.FImm))
				u64(uint64(in.Target)<<32 | uint64(in.Size))
				h.Write([]byte(in.Sym))
			}
		}
		for _, seg := range img.Data[arch] {
			u64(seg.Addr)
			u64(uint64(seg.Size))
			h.Write(seg.Bytes)
		}
	}
	return h.Sum64()
}
