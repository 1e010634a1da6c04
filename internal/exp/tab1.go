package exp

import (
	"fmt"

	"heterodc/internal/core"
	"heterodc/internal/isa"
	"heterodc/internal/link"
	"heterodc/internal/npb"
)

// Table1Row is one aligned-vs-unaligned comparison.
type Table1Row struct {
	Bench npb.Bench
	Class npb.Class
	Arch  isa.Arch
	// ExecRatio is aligned/unaligned execution time (>1 = alignment slows).
	ExecRatio float64
	// L1IMissRatio is aligned/unaligned L1 instruction-cache miss ratio.
	L1IMissRatio float64
	// L1DMissDelta is the absolute difference in D-cache miss rates.
	L1DMissDelta float64
}

// Table1 reproduces Table 1: the cost of the unified (aligned) symbol
// layout versus natural per-ISA layout, measured as execution-time and
// L1 instruction-cache miss ratios for IS and CG.
func Table1(cfg Config) ([]Table1Row, error) {
	var rows []Table1Row
	for _, b := range []npb.Bench{npb.IS, npb.CG} {
		for _, c := range cfg.classes() {
			aligned, err := buildDefault(b, c, 1)
			if err != nil {
				return nil, err
			}
			unaligned, err := buildUnaligned(b, c, 1)
			if err != nil {
				return nil, err
			}
			for _, arch := range isa.Arches {
				ta, ia, err := runWithCacheStats(aligned, arch)
				if err != nil {
					return nil, fmt.Errorf("tab1 aligned %s.%s: %w", b, c, err)
				}
				tu, iu, err := runWithCacheStats(unaligned, arch)
				if err != nil {
					return nil, fmt.Errorf("tab1 unaligned %s.%s: %w", b, c, err)
				}
				missRatio := 1.0
				if iu.iMissRate > 0 {
					missRatio = ia.iMissRate / iu.iMissRate
				}
				row := Table1Row{
					Bench: b, Class: c, Arch: arch,
					ExecRatio:    ta / tu,
					L1IMissRatio: missRatio,
					L1DMissDelta: ia.dMissRate - iu.dMissRate,
				}
				rows = append(rows, row)
				cfg.printf("tab1 %-4s %s %-6s exec=%.4f l1i-miss-ratio=%.3f l1d-delta=%+.5f%%\n",
					b, c, arch, row.ExecRatio, row.L1IMissRatio, row.L1DMissDelta*100)
			}
		}
	}
	return rows, nil
}

type cacheRates struct {
	iMissRate float64
	dMissRate float64
}

func runWithCacheStats(img *link.Image, arch isa.Arch) (float64, cacheRates, error) {
	cl := core.NewSingle(arch)
	res, err := core.RunOn(cl, img, 0)
	if err != nil {
		return 0, cacheRates{}, err
	}
	iAcc, iMiss, dAcc, dMiss := cl.Kernels[0].CacheStats()
	var cr cacheRates
	if iAcc > 0 {
		cr.iMissRate = float64(iMiss) / float64(iAcc)
	}
	if dAcc > 0 {
		cr.dMissRate = float64(dMiss) / float64(dAcc)
	}
	return res.Seconds, cr, nil
}

// Table1ShapeHolds checks the paper's claim: symbol alignment costs at most
// ~1-2% execution time in every configuration.
func Table1ShapeHolds(rows []Table1Row) error {
	for _, r := range rows {
		if r.ExecRatio > 1.03 || r.ExecRatio < 0.97 {
			return fmt.Errorf("tab1: %s.%s on %s exec ratio %.4f outside ±3%%",
				r.Bench, r.Class, r.Arch, r.ExecRatio)
		}
	}
	return nil
}
