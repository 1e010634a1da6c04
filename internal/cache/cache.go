// Package cache implements the set-associative L1 cache simulator used for
// the paper's Table 1 (alignment impact on L1 instruction-cache miss ratios)
// and for the machine cycle model.
package cache

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
	// tags[set*ways+way]; valid bit folded into tag via tag+1 (0 = invalid).
	// tags and lru are allocated at the first lookup: a fleet builds two
	// caches for every core of every node, and most cores never run.
	tags []uint64
	// lru[set*ways+way] = recency counter; higher = more recent.
	lru     []uint64
	counter uint64
	// last is the line of the most recent access (noLine = none): the memo
	// that lets a repeat access to that line skip the way scan. It is exact,
	// not approximate — the line already holds the highest recency stamp in
	// the whole cache, so leaving the stamp alone changes no LRU order and no
	// future victim.
	last uint64

	Accesses uint64
	Misses   uint64
}

// noLine is the memo's empty value: no address shifts down to it.
const noLine = ^uint64(0)

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	lb := uint(0)
	for 1<<lb < cfg.LineBytes {
		lb++
	}
	return &Cache{
		cfg:      cfg,
		lineBits: lb,
		setMask:  uint64(sets - 1),
		last:     noLine,
	}
}

// Access simulates a cache access to addr and returns the added cycle
// penalty (0 on hit, MissCycles on miss).
func (c *Cache) Access(addr uint64) int64 {
	if line := addr >> c.lineBits; line != c.last {
		return c.accessLine(line)
	}
	c.Accesses++
	return 0
}

// accessLine is the full lookup for a line other than the memoised one.
func (c *Cache) accessLine(line uint64) int64 {
	c.Accesses++
	if c.tags == nil {
		n := int(c.setMask+1) * c.cfg.Ways
		c.tags, c.lru = make([]uint64, n), make([]uint64, n)
	}
	c.last = line
	tag := line + 1 // +1 so tag 0 never collides with the invalid marker
	base := int(line&c.setMask) * c.cfg.Ways
	tags := c.tags[base : base+c.cfg.Ways]
	lru := c.lru[base : base+c.cfg.Ways]

	c.counter++
	// Hit?
	for w, t := range tags {
		if t == tag {
			lru[w] = c.counter
			return 0
		}
	}
	// Miss: evict LRU way.
	c.Misses++
	victim := 0
	for w := 1; w < len(lru); w++ {
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	tags[victim] = tag
	lru[victim] = c.counter
	return c.cfg.MissCycles
}

// Repeat is the memo's hit test, small enough to inline into the
// interpreter's fetch and data paths: when [addr, addr+size) lies wholly in
// the line of the previous access it counts the access (a hit) and reports
// true; otherwise it does nothing and the caller goes through AccessRange.
func (c *Cache) Repeat(addr uint64, size int64) bool {
	if addr>>c.lineBits != c.last || (addr+uint64(size)-1)>>c.lineBits != c.last {
		return false
	}
	c.Accesses++
	return true
}

// AccessRange simulates an access spanning [addr, addr+size) — e.g. a
// variable-length instruction fetch that may straddle a line boundary —
// returning the total penalty.
func (c *Cache) AccessRange(addr uint64, size int64) int64 {
	if size <= 0 {
		size = 1
	}
	if c.Repeat(addr, size) {
		return 0
	}
	first := addr >> c.lineBits
	last := (addr + uint64(size) - 1) >> c.lineBits
	if first == last {
		return c.accessLine(first)
	}
	var penalty int64
	for l := first; l <= last; l++ {
		penalty += c.Access(l << c.lineBits)
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
	for i := range c.tags {
		c.tags[i] = 0
		c.lru[i] = 0
	}
	c.counter = 0
	c.last = noLine
	c.Accesses = 0
	c.Misses = 0
}

// Flush invalidates contents but keeps statistics (e.g. after migration the
// destination core starts cold).
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = 0
		c.lru[i] = 0
	}
	c.last = noLine
}
