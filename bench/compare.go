package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"heterodc/internal/trace"
)

// compareFiles prints the comparison of two results.json files: a is the
// base (the parent commit), b the change.
func compareFiles(a, b string) error {
	sa, err := loadSuite(a)
	if err != nil {
		return err
	}
	sb, err := loadSuite(b)
	if err != nil {
		return err
	}
	report(os.Stdout, sa, sb, false)
	return nil
}

func loadSuite(path string) (*suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &suite{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// verdict judges one end-to-end metric of one workload. worse is how much
// b is worse than a as a share of a (negative: better). When either
// side's own spread (quartile distance over its samples, as a share of its
// median) exceeds the bound, the medians decide nothing: the metric is
// "unresolved" unless the two sample sets do not overlap at all. Otherwise
// it is "regressed" beyond the bound and "ok" within it.
func verdict(d metricDef, a, b float64, sa, sb []float64) (worse float64, v string) {
	if a == 0 {
		return 0, "unresolved"
	}
	worse = (b - a) / a
	qa, qb := trace.Summarize(sa), trace.Summarize(sb)
	allBetter, allWorse := qb.Max < qa.Min, qb.Min > qa.Max
	if d.Better != "lower" {
		worse = -worse
		allBetter, allWorse = allWorse, allBetter
	}
	if spread(sa) > d.Bound || spread(sb) > d.Bound {
		switch {
		case allBetter:
			return worse, "ok"
		case allWorse && worse > d.Bound:
			return worse, "regressed"
		}
		return worse, "unresolved"
	}
	if worse > d.Bound {
		return worse, "regressed"
	}
	return worse, "ok"
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q := trace.Summarize(xs)
	if q.N < 2 || q.Median == 0 {
		return 0
	}
	return (q.Q3 - q.Q1) / q.Median
}

// report prints, per workload and end-to-end metric, both values, the
// ratio b/a with its base, the bound and the verdict, and whether the
// simulated statistics are identical. With symmetric set it also judges a
// against b, the selfcheck's "differs by more than its bound". It returns
// false if anything regressed or a workload is missing from b.
func report(w io.Writer, a, b *suite, symmetric bool) bool {
	ok := true
	byName := map[string]*result{}
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	fmt.Fprintf(w, "\n%-10s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for _, ra := range a.Results {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(w, "%-10s missing from the second set\n", ra.Workload)
			ok = false
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			_, v := verdict(d, va, vb, ra.Samples[d.Name], rb.Samples[d.Name])
			if symmetric && v != "regressed" {
				if _, back := verdict(d, vb, va, rb.Samples[d.Name], ra.Samples[d.Name]); back == "regressed" {
					v = back
				}
			}
			if v == "regressed" {
				ok = false
			}
			fmt.Fprintf(w, "%-10s %-16s %14.6g %14.6g %8.4f %6.2f  %s\n", ra.Workload, d.Name, va, vb, ratio(vb, va), d.Bound, v)
		}
		same := "identical"
		if ra.SimFingerprint != rb.SimFingerprint {
			same = "DIFFERENT (" + ra.SimFingerprint + " vs " + rb.SimFingerprint + ")"
		}
		fmt.Fprintf(w, "%-10s sim_fingerprint %s\n", ra.Workload, same)
		if rb.Failed > ra.Failed {
			fmt.Fprintf(w, "%-10s failed ops %d -> %d\n", ra.Workload, ra.Failed, rb.Failed)
			ok = false
		}
	}
	return ok
}
