// Package cache implements the set-associative L1 cache simulator used for
// the paper's Table 1 (alignment impact on L1 instruction-cache miss ratios)
// and for the machine cycle model.
package cache

import "fmt"

// Config describes a cache geometry.
type Config struct {
	SizeBytes  int   // total capacity
	LineBytes  int   // line size
	Ways       int   // associativity
	MissCycles int64 // penalty added on a miss
}

// DefaultL1 is the 32 KiB, 8-way, 64 B-line geometry of both evaluation
// machines' L1 caches.
func DefaultL1(missCycles int64) Config {
	return Config{SizeBytes: 32 * 1024, LineBytes: 64, Ways: 8, MissCycles: missCycles}
}

// Cache is a set-associative cache with LRU replacement. It tracks only
// tags (contents live in simulated memory), which is all the cycle model
// needs.
type Cache struct {
	cfg      Config
	lineBits uint
	setMask  uint64
	// tags[way*sets+set] holds each set's lines most recent first, so the
	// last way is the LRU victim and tags[set] is the front; the valid bit
	// is folded into the tag as line+1 (0 = invalid, and invalid ways sort
	// last). tags is allocated at the first lookup: a fleet builds two
	// caches for every core of every node, and most cores never run.
	tags []uint64

	Accesses uint64
	Misses   uint64
}

// New builds a cache from cfg. It panics, naming the field, on a geometry
// the set index cannot represent: a line size or a set count that is not a
// power of two.
func New(cfg Config) *Cache {
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	sets := 0
	if cfg.LineBytes > 0 && cfg.Ways > 0 {
		sets = cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	}
	switch {
	case !pow2(cfg.LineBytes):
		panic(fmt.Sprintf("cache: LineBytes %d is not a power of two", cfg.LineBytes))
	case cfg.Ways <= 0:
		panic(fmt.Sprintf("cache: Ways %d is not positive", cfg.Ways))
	case !pow2(sets) || sets*cfg.LineBytes*cfg.Ways != cfg.SizeBytes:
		panic(fmt.Sprintf("cache: SizeBytes %d is not a power-of-two number of sets of %d ways of %d bytes", cfg.SizeBytes, cfg.Ways, cfg.LineBytes))
	}
	lb := uint(0)
	for 1<<lb < cfg.LineBytes {
		lb++
	}
	return &Cache{cfg: cfg, lineBits: lb, setMask: uint64(sets - 1)}
}

// LineShift is the shift that maps an address to its line.
func (c *Cache) LineShift() uint { return c.lineBits }

// Front reports whether line is the most recent line of its set. An access
// wholly inside such a line is a hit that moves nothing, so the caller may
// count it in Accesses itself instead of calling AccessRange — the
// interpreter's inlined hit path.
func (c *Cache) Front(line uint64) bool {
	i := line & c.setMask
	return i < uint64(len(c.tags)) && c.tags[i] == line+1
}

// Access simulates a cache access to addr and returns the added cycle
// penalty (0 on hit, MissCycles on miss).
func (c *Cache) Access(addr uint64) int64 { return c.AccessRange(addr, 1) }

// AccessRange simulates an access spanning [addr, addr+size) — e.g. a
// variable-length instruction fetch that may straddle a line boundary —
// as one access per line touched, returning the total penalty. A size of
// zero or less counts as one byte.
//
// Per line: a hit on the set's most recent line is one compare; a hit
// further back moves that line to the front; a miss shifts the set back one
// way, which drops the LRU line, and fills the front.
func (c *Cache) AccessRange(addr uint64, size int64) int64 {
	if size <= 0 {
		size = 1
	}
	if c.tags == nil {
		c.tags = make([]uint64, int(c.setMask+1)*c.cfg.Ways)
	}
	var penalty int64
	stride, end := int(c.setMask+1), len(c.tags)
	for line, last := addr>>c.lineBits, (addr+uint64(size)-1)>>c.lineBits; line <= last; line++ {
		c.Accesses++
		tag := line + 1 // +1 so tag 0 never collides with the invalid marker
		front := int(line & c.setMask)
		if c.tags[front] == tag {
			continue
		}
		w := front + stride
		for w < end && c.tags[w] != tag {
			w += stride
		}
		if w >= end {
			c.Misses++
			penalty += c.cfg.MissCycles
			w -= stride
		}
		for ; w > front; w -= stride {
			c.tags[w] = c.tags[w-stride]
		}
		c.tags[front] = tag
	}
	return penalty
}

// MissRatio returns Misses/Accesses (0 if no accesses).
func (c *Cache) MissRatio() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.tags)
	c.Accesses = 0
	c.Misses = 0
}

// Flush invalidates contents but keeps statistics (e.g. after migration the
// destination core starts cold).
func (c *Cache) Flush() {
	clear(c.tags)
}
