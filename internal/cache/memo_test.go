package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// refLRU is the reference the cache is checked against: the same
// set-associative geometry as a growable recency list per set, with no
// shortcut. Safety code — keep it free of the production cache's shortcuts.
type refLRU struct {
	cfg              Config
	sets             [][]uint64 // lines of each set, most recent first
	accesses, misses uint64
	// depth[w] counts hits on way w of a set (0 = most recent) and missed
	// counts misses, both kept across reset: what a trace has exercised.
	depth  []uint64
	missed uint64
}

func newRef(cfg Config) *refLRU {
	return &refLRU{cfg: cfg, sets: make([][]uint64, cfg.SizeBytes/cfg.LineBytes/cfg.Ways), depth: make([]uint64, cfg.Ways)}
}

func (r *refLRU) access(addr uint64) int64 {
	r.accesses++
	line := addr / uint64(r.cfg.LineBytes)
	set := &r.sets[line%uint64(len(r.sets))]
	if i := slices.Index(*set, line); i >= 0 {
		r.depth[i]++
		*set = slices.Insert(slices.Delete(*set, i, i+1), 0, line)
		return 0
	}
	r.misses++
	r.missed++
	*set = slices.Insert(*set, 0, line)
	if len(*set) > r.cfg.Ways {
		*set = (*set)[:r.cfg.Ways]
	}
	return r.cfg.MissCycles
}

func (r *refLRU) accessRange(addr uint64, size int64) int64 {
	if size <= 0 {
		size = 1
	}
	lb := uint64(r.cfg.LineBytes)
	var penalty int64
	for l := addr / lb; l <= (addr+uint64(size)-1)/lb; l++ {
		penalty += r.access(l * lb)
	}
	return penalty
}

func (r *refLRU) flush() {
	for i := range r.sets {
		r.sets[i] = nil
	}
}

func (r *refLRU) reset() {
	r.flush()
	r.accesses, r.misses = 0, 0
}

// inline is the interpreter's access sequence: an access wholly inside a
// line at the front of its set is counted as a hit by the caller, anything
// else calls AccessRange. front reports which way it went.
func inline(c *Cache, addr uint64, size int64) (penalty int64, front bool) {
	sh := c.LineShift()
	if line := addr >> sh; size > 0 && (addr+uint64(size)-1)>>sh == line && c.Front(line) {
		c.Accesses++
		return 0, true
	}
	return c.AccessRange(addr, size), false
}

// TestMemoMatchesReferenceLRU holds the Front contract: driven with the
// interpreter's sequence (Front, else AccessRange) and, mixed in, Access,
// the cache agrees with the reference on every penalty and both counters
// over seeded traces — strides, random addresses in a window a few times
// the cache, runs on one line, ranges that straddle lines, flushes and
// resets in between. Each trace must reach every path: front hits taken
// inline, deeper-way hits, misses and straddles.
func TestMemoMatchesReferenceLRU(t *testing.T) {
	for _, cfg := range []Config{small(), DefaultL1(12), {SizeBytes: 512, LineBytes: 32, Ways: 1, MissCycles: 7}, {SizeBytes: 3 * 1024, LineBytes: 64, Ways: 3, MissCycles: 5}} {
		for seed := int64(1); seed <= 8; seed++ {
			r := rand.New(rand.NewSource(seed))
			c, ref := New(cfg), newRef(cfg)
			window := uint64(4 * cfg.SizeBytes)
			base := uint64(r.Intn(1 << 20))
			stride := uint64(1 + r.Intn(3*cfg.LineBytes))
			cur := base
			var fronts, straddles, resets int
			for i := 0; i < 20000; i++ {
				var addr uint64
				switch k := r.Intn(10); {
				case k < 3: // strided walk
					cur += stride
					addr = base + (cur-base)%window
				case k < 6: // stay near the previous access: mostly the same line
					addr = cur + uint64(r.Intn(cfg.LineBytes/2))
				default:
					addr = base + uint64(r.Int63n(int64(window)))
					cur = addr
				}
				var got, want int64
				switch k := r.Intn(200); {
				case k < 5:
					c.Flush()
					ref.flush()
					continue
				case k == 5:
					c.Reset()
					ref.reset()
					resets++
					continue
				case k < 60:
					got, want = c.Access(addr), ref.access(addr)
				default:
					size := int64(r.Intn(2*cfg.LineBytes)) - 1 // -1 and 0 count as one byte
					var front bool
					got, front = inline(c, addr, size)
					if front {
						fronts++
					}
					if (addr+uint64(max(size, 1))-1)/uint64(cfg.LineBytes) != addr/uint64(cfg.LineBytes) {
						straddles++
					}
					want = ref.accessRange(addr, size)
				}
				if got != want || c.Accesses != ref.accesses || c.Misses != ref.misses {
					t.Fatalf("%+v seed %d access %d at %#x: penalty %d want %d, accesses %d want %d, misses %d want %d",
						cfg, seed, i, addr, got, want, c.Accesses, ref.accesses, c.Misses, ref.misses)
				}
			}
			deeper := uint64(0)
			for _, n := range ref.depth[1:] {
				deeper += n
			}
			if fronts == 0 || straddles == 0 || resets == 0 || ref.missed == 0 || (cfg.Ways > 1 && deeper == 0) {
				t.Errorf("%+v seed %d: trace missed a path: %d front hits inline, %d straddles, %d resets, %d misses, %d deeper-way hits",
					cfg, seed, fronts, straddles, resets, ref.missed, deeper)
			}
		}
	}
}

// TestResetClearsMemo: a line touched before Reset misses after it, though
// it was at the front of its set.
func TestResetClearsMemo(t *testing.T) {
	c := New(small())
	c.Access(0x100)
	c.Reset()
	if p := c.Access(0x100); p != 10 || c.Misses != 1 {
		t.Fatalf("access after Reset: penalty %d misses %d, want a miss", p, c.Misses)
	}
}

// benchTraces are BenchmarkCacheAccess's address patterns over the L1.
func benchTraces() []benchTrace {
	r := rand.New(rand.NewSource(1))
	same, strided, random := make([]uint64, 4096), make([]uint64, 4096), make([]uint64, 4096)
	for i := range same {
		same[i] = 0x1000 + uint64(i%64)
		strided[i] = uint64(i*64) % (256 << 10) // streams past 32 KiB
		random[i] = uint64(r.Intn(16 << 10))    // fits: mostly way-scan hits
	}
	return []benchTrace{{"sameline", same}, {"strided", strided}, {"random", random}}
}

type benchTrace struct {
	name  string
	addrs []uint64
}

func BenchmarkCacheAccess(b *testing.B) {
	for _, tr := range benchTraces() {
		b.Run(tr.name, func(b *testing.B) {
			c := New(DefaultL1(12))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Access(tr.addrs[i%len(tr.addrs)])
			}
		})
	}
}

func TestAccessDoesNotAllocate(t *testing.T) {
	c := New(DefaultL1(12))
	for _, tr := range benchTraces() {
		if n := testing.AllocsPerRun(10, func() {
			for _, a := range tr.addrs {
				c.Access(a)
				c.AccessRange(a, 8)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocs per run on the access path, want 0", tr.name, n)
		}
	}
}
