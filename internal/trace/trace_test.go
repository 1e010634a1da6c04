package trace

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Median != 3 || s.Max != 5 || s.Mean != 3 {
		t.Fatalf("summary %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("quartiles %v %v", s.Q1, s.Q3)
	}
}

func TestSummarizeInterpolation(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Median != 2.5 {
		t.Fatalf("median %v, want 2.5", s.Median)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("empty summary")
	}
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 {
		t.Fatalf("single summary %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestDecadeHistogram(t *testing.T) {
	var h DecadeHistogram
	for _, v := range []float64{0.5, 1, 9, 10, 99, 100, 1e6} {
		h.Add(v)
	}
	if h.Total != 7 {
		t.Fatal("total")
	}
	if h.Counts[0] != 3 { // 0.5, 1, 9
		t.Errorf("decade 0: %d", h.Counts[0])
	}
	if h.Counts[1] != 2 || h.Counts[2] != 1 || h.Counts[6] != 1 {
		t.Errorf("counts %v", h.Counts)
	}
	if h.Row(3) != "3\t2\t1" {
		t.Errorf("row %q", h.Row(3))
	}
	if h.String() == "" {
		t.Error("empty render")
	}
}

func TestDecadeHistogramClampsHuge(t *testing.T) {
	var h DecadeHistogram
	h.Add(1e30)
	if h.Counts[len(h.Counts)-1] != 1 {
		t.Fatal("huge value not clamped to last bucket")
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{2, 4, 6}) != 4 || Mean(nil) != 0 {
		t.Error("mean")
	}
}

// Property: the five-number summary brackets correctly for any input.
func TestPropertySummaryOrdering(t *testing.T) {
	err := quick.Check(func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return s.Min == sorted[0] && s.Max == sorted[len(sorted)-1] &&
			s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
