package fuzz

import (
	"strings"
	"testing"

	"heterodc/internal/core"
)

// Same seed, same program — the whole corpus story depends on it.
func TestGeneratorDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		a := GenerateSource(seed)
		b := GenerateSource(seed)
		if a != b {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
}

// Every seed must yield a program the toolchain accepts: the generator is
// valid-by-construction, and a parse/type error is a generator bug.
func TestGeneratedProgramsBuild(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		src := GenerateSource(seed)
		if _, err := core.Build("fuzzprog", core.Src("fuzz.c", src)); err != nil {
			t.Fatalf("seed %d does not build: %v\n%s", seed, err, numbered(src))
		}
	}
}

// ParseHeader must round-trip what Render wrote.
func TestHeaderRoundTrip(t *testing.T) {
	p := Generate(99)
	seed, feats := ParseHeader(Render(p))
	if seed != 99 {
		t.Fatalf("seed round-trip: got %d", seed)
	}
	if len(feats) != len(p.Features) {
		t.Fatalf("features round-trip: got %v want %v", feats, p.Features)
	}
}

// A few seeds through the full oracle: programs must complete on the
// reference node and agree across every mode.
func TestOracleOnSamples(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		v, err := RunSource(GenerateSource(seed))
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		if !v.Ref().OK {
			t.Fatalf("seed %d: generator produced a failing program\n%s",
				seed, numbered(v.Source))
		}
		if v.Diverged {
			t.Fatalf("seed %d diverged:\n%s\n%s",
				seed, strings.Join(v.Diffs, "\n"), numbered(v.Source))
		}
		if v.Points == 0 {
			t.Fatalf("seed %d: reference run hit no migration points", seed)
		}
	}
}

// The reducer machinery under a cheap synthetic predicate: reduction must
// terminate, shrink substantially, and preserve the predicate.
func TestReducerShrinks(t *testing.T) {
	p := Generate(7)
	orig := Render(p)
	check := func(c *Prog) bool {
		src := Render(c)
		if _, err := core.Build("fuzzprog", core.Src("fuzz.c", src)); err != nil {
			return false
		}
		return strings.Contains(src, "print_i64_ln")
	}
	if !check(p) {
		t.Skip("seed 7 lost its print; pick another seed")
	}
	red, used := Reduce(p, check, 400)
	got := Render(red)
	if !strings.Contains(got, "print_i64_ln") {
		t.Fatalf("reduction lost the predicate")
	}
	if len(got) >= len(orig) {
		t.Fatalf("no shrink: %d -> %d bytes (%d checks)", len(orig), len(got), used)
	}
	if len(got) > len(orig)/2 {
		t.Errorf("weak shrink: %d -> %d bytes (%d checks)", len(orig), len(got), used)
	}
}

// Reduction candidates must never touch atomic blocks partially: after any
// amount of reduction, lock and unlock counts stay balanced.
func TestReduceKeepsAtomicPairs(t *testing.T) {
	var p *Prog
	for seed := int64(1); seed < 200; seed++ {
		c := Generate(seed)
		if hasFeature(c, FeatLocks) {
			p = c
			break
		}
	}
	if p == nil {
		t.Fatal("no lock-using program in the first 200 seeds")
	}
	check := func(c *Prog) bool {
		src := Render(c)
		if _, err := core.Build("fuzzprog", core.Src("fuzz.c", src)); err != nil {
			return false
		}
		return strings.Contains(src, "spawn(")
	}
	if !check(p) {
		t.Fatal("lock program lost its spawn")
	}
	red, _ := Reduce(p, check, 300)
	src := Render(red)
	// Count lock/unlock in generated (non-prelude) code: they must pair up.
	locks := strings.Count(src, "lock((&glk))") - strings.Count(src, "unlock((&glk))")
	if locks != 0 {
		t.Fatalf("reduction unbalanced lock/unlock by %d:\n%s", locks, numbered(src))
	}
}

func hasFeature(p *Prog, feat string) bool {
	for _, f := range p.Features {
		if f == feat {
			return true
		}
	}
	return false
}

// numbered returns src with line numbers for failure dumps.
func numbered(src string) string {
	lines := strings.Split(src, "\n")
	var b strings.Builder
	for i, l := range lines {
		b.WriteString(strings.TrimRight(
			strings.Join([]string{pad(i + 1), l}, "  "), " "))
		b.WriteString("\n")
	}
	return b.String()
}

func pad(n int) string {
	s := "    "
	d := len(s)
	for x := n; x > 0; x /= 10 {
		d--
	}
	if d < 0 {
		d = 0
	}
	return s[:d] + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// FuzzDifferential is the native fuzzing entrypoint: each input is a
// generator seed; the program it produces must behave identically under
// every oracle mode. Run with:
//
//	go test -fuzz=FuzzDifferential ./internal/fuzz
func FuzzDifferential(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(1770))
	f.Add(int64(946))
	f.Fuzz(func(t *testing.T, seed int64) {
		p := Generate(seed)
		v, err := RunProg(p)
		if err != nil {
			// Build failures are generator bugs; timeouts on extreme seeds
			// are uninteresting.
			if strings.Contains(err.Error(), "build") {
				t.Fatalf("seed %d: %v\n%s", seed, err, numbered(Render(p)))
			}
			t.Skip(err)
		}
		if !v.Ref().OK {
			t.Fatalf("seed %d: generated program failed on the reference node\n%s",
				seed, numbered(v.Source))
		}
		if !v.Diverged {
			return
		}
		check := func(c *Prog) bool {
			cv, cerr := RunProg(c)
			return cerr == nil && cv.Diverged
		}
		red, _ := Reduce(p, check, 150)
		path, werr := WriteRepro("testdata", Render(red))
		if werr != nil {
			t.Logf("could not write repro: %v", werr)
		}
		t.Errorf("seed %d diverged (repro %s):\n%s\n%s",
			seed, path, strings.Join(v.Diffs, "\n"), numbered(Render(red)))
	})
}
