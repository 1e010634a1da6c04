// Package npb provides the evaluation workloads: mini-C re-implementations
// of the NAS Parallel Benchmarks kernels the paper uses (CG, IS, EP, FT,
// BT, SP), plus the bzip2smp-like compressor and the Verus-like model
// checker that round out its job mix.
//
// Problem classes A/B/C are preserved as a scaling knob but the absolute
// sizes are reduced so that full-system simulation is laptop-scale
// (documented in DESIGN.md). Each benchmark prints a deterministic
// checksum, which the correctness tests compare across ISAs and across
// migration schedules.
package npb

import (
	"fmt"
	"sync"

	"heterodc/internal/core"
	"heterodc/internal/link"
	"heterodc/internal/minic"
)

// Bench names a workload.
type Bench string

// The workloads of the paper's evaluation.
const (
	EP    Bench = "ep"
	IS    Bench = "is"
	CG    Bench = "cg"
	FT    Bench = "ft"
	BT    Bench = "bt"
	SP    Bench = "sp"
	MG    Bench = "mg"
	Bzip2 Bench = "bzip2smp"
	Verus Bench = "verus"
)

// NPBKernels lists the NAS kernels (excluding the two applications).
var NPBKernels = []Bench{EP, IS, CG, FT, BT, SP, MG}

// All lists every workload.
var All = []Bench{EP, IS, CG, FT, BT, SP, MG, Bzip2, Verus}

// Class is an NPB problem class.
type Class byte

// Problem classes: S (tiny smoke test), A, B, C as in the paper.
const (
	ClassS Class = 'S'
	ClassA Class = 'A'
	ClassB Class = 'B'
	ClassC Class = 'C'
)

// Classes lists the evaluation classes (A, B, C).
var Classes = []Class{ClassA, ClassB, ClassC}

func (c Class) String() string { return string(rune(c)) }

// classIndex returns 0..3 for S/A/B/C.
func classIndex(c Class) (int, error) {
	switch c {
	case ClassS:
		return 0, nil
	case ClassA:
		return 1, nil
	case ClassB:
		return 2, nil
	case ClassC:
		return 3, nil
	}
	return 0, fmt.Errorf("npb: unknown class %q", string(rune(c)))
}

// MaxThreads is the most worker threads a benchmark is generated for.
const MaxThreads = 16

// Source generates the mini-C program for bench at class with the given
// thread count baked in, clamped to 1..MaxThreads.
func Source(b Bench, c Class, threads int) (minic.Source, error) {
	ci, err := classIndex(c)
	if err != nil {
		return minic.Source{}, err
	}
	threads = min(max(threads, 1), MaxThreads)
	var body string
	switch b {
	case EP:
		body = epSource(ci, threads)
	case IS:
		body = isSource(ci, threads)
	case CG:
		body = cgSource(ci, threads)
	case FT:
		body = ftSource(ci, threads)
	case BT:
		body = btSource(ci, threads)
	case SP:
		body = spSource(ci, threads)
	case MG:
		body = mgSource(ci, threads)
	case Bzip2:
		body = bzip2Source(ci, threads)
	case Verus:
		body = verusSource(ci, threads)
	default:
		return minic.Source{}, fmt.Errorf("npb: unknown benchmark %q", b)
	}
	name := fmt.Sprintf("%s.%s.t%d.c", b, c, threads)
	return minic.Source{Name: name, Code: npbCommon + body}, nil
}

// MigrationFunc returns the function the Figure 11 experiment migrates
// (full_verify for IS, as in the paper).
func MigrationFunc(b Bench) string {
	if b == IS {
		return "full_verify"
	}
	return "main"
}

type buildKey struct {
	b       Bench
	c       Class
	threads int
	opts    string
}

var (
	buildMu    sync.Mutex
	buildCache = map[buildKey]*link.Image{}
)

// Build compiles (with caching) the benchmark into a migratable multi-ISA
// image using the default toolchain options.
func Build(b Bench, c Class, threads int) (*link.Image, error) {
	return BuildWith(b, c, threads, core.DefaultBuildOptions(), "default")
}

// BuildWith compiles with explicit toolchain options; optsTag keys the
// cache (pass distinct tags for distinct options).
func BuildWith(b Bench, c Class, threads int, opts core.BuildOptions, optsTag string) (*link.Image, error) {
	key := buildKey{b: b, c: c, threads: threads, opts: optsTag}
	buildMu.Lock()
	defer buildMu.Unlock()
	if img, ok := buildCache[key]; ok {
		return img, nil
	}
	src, err := Source(b, c, threads)
	if err != nil {
		return nil, err
	}
	img, err := core.BuildWith(fmt.Sprintf("%s.%s.t%d", b, c, threads), opts, src)
	if err != nil {
		return nil, err
	}
	buildCache[key] = img
	return img, nil
}

// npbCommon is the shared mini-C support code: the NPB-style pseudo-random
// generator (46-bit LCG), polynomial sine/cosine (the simulated ISAs have
// no trig hardware, as on real machines libm provides it), and reduction
// helpers.
const npbCommon = `
// --- NPB-style 46-bit linear congruential generator ---

long __npb_seed = 314159265;

void npb_srand(long s) { __npb_seed = s & 70368744177663; }

long npb_rand(void) {
	__npb_seed = (__npb_seed * 1220703125 + 11) & 70368744177663;
	return __npb_seed;
}

// Uniform double in [0,1).
double npb_rand01(void) {
	return (double)npb_rand() * (1.0 / 70368744177664.0);
}

// Independent stream for thread t (deterministic leapfrogging).
long npb_stream_seed(long t) {
	long s = 271828183 + t * 1048573;
	return s & 70368744177663;
}

long npb_rand_from(long *state) {
	*state = (*state * 1220703125 + 11) & 70368744177663;
	return *state;
}

double npb_rand01_from(long *state) {
	return (double)npb_rand_from(state) * (1.0 / 70368744177664.0);
}

// --- polynomial trig (range-reduced Taylor, ~1e-10 over one period) ---

double msin(double x) {
	double twopi = 6.283185307179586;
	double pi = 3.141592653589793;
	long k = (long)(x / twopi);
	x = x - (double)k * twopi;
	if (x > pi) x = x - twopi;
	if (x < 0.0 - pi) x = x + twopi;
	// After reduction |x| <= pi; fold into |x| <= pi/2 for accuracy.
	if (x > pi / 2.0) x = pi - x;
	if (x < 0.0 - pi / 2.0) x = 0.0 - pi - x;
	double x2 = x * x;
	return x * (1.0 - x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0 *
		(1.0 - x2 / 72.0 * (1.0 - x2 / 110.0 * (1.0 - x2 / 156.0))))));
}

double mcos(double x) { return msin(x + 1.5707963267948966); }

// mlog2: integer log2 (n must be a power of two).
long mlog2(long n) {
	long l = 0;
	while (n > 1) { n = n / 2; l++; }
	return l;
}

// Print a double checksum as a scaled integer for exact cross-ISA
// comparison.
void print_checksum(char *label, double v) {
	print_str(label);
	print_i64((long)(v * 1000000.0));
	println();
}
`
