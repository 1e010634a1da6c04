// Package trace provides the small statistics helpers the experiment
// harness uses: quantile summaries (for Figure 10's box plots) and
// decade histograms (for Figures 3-5's instructions-between-migration-
// points distributions).
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary is a five-number summary of a sample set.
type Summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
}

// Summarize computes the five-number summary (nearest-rank quantiles).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		idx := p * float64(len(s)-1)
		lo := int(math.Floor(idx))
		hi := int(math.Ceil(idx))
		if lo == hi {
			return s[lo]
		}
		frac := idx - float64(lo)
		return s[lo]*(1-frac) + s[hi]*frac
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return Summary{
		N: len(s), Min: s[0], Q1: q(0.25), Median: q(0.5), Q3: q(0.75),
		Max: s[len(s)-1], Mean: sum / float64(len(s)),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3g q1=%.3g med=%.3g q3=%.3g max=%.3g mean=%.3g",
		s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
}

// DecadeHistogram buckets positive values by order of magnitude:
// bucket i counts values in [10^i, 10^(i+1)).
type DecadeHistogram struct {
	Counts [12]int
	Total  int
}

// Add records one value.
func (h *DecadeHistogram) Add(v float64) {
	h.Total++
	if v < 1 {
		h.Counts[0]++
		return
	}
	d := int(math.Log10(v))
	if d >= len(h.Counts) {
		d = len(h.Counts) - 1
	}
	h.Counts[d]++
}

// String renders the histogram as one row per decade.
func (h *DecadeHistogram) String() string {
	var sb strings.Builder
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  10^%-2d : %d\n", i, c)
	}
	return sb.String()
}

// Row renders counts for decades [0, n) as tab-separated values.
func (h *DecadeHistogram) Row(n int) string {
	parts := make([]string, n)
	for i := 0; i < n && i < len(h.Counts); i++ {
		parts[i] = fmt.Sprint(h.Counts[i])
	}
	return strings.Join(parts, "\t")
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
