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
	// tags[set*ways+way] holds each set's lines most recent first, so the
	// last way is the LRU victim; the valid bit is folded into the tag as
	// line+1 (0 = invalid, and invalid ways sort last). tags is allocated at
	// the first lookup: a fleet builds two caches for every core of every
	// node, and most cores never run.
	tags []uint64
	// last is the line of the most recent access (noLine = none): the memo
	// that lets a repeat access to that line skip the set. It is exact, not
	// approximate — the line is at the front of its set, where a hit leaves
	// it, so skipping the lookup changes no recency order and no future
	// victim.
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

// Memo returns the memo: the line of the most recent access, or a value no
// address maps to. An access wholly inside it (InLine) is a hit that the
// caller may count in Accesses itself instead of calling Access — the
// interpreter keeps the memo in a local and re-reads it after any call that
// may have moved it.
func (c *Cache) Memo() uint64 { return c.last }

// LineShift is the shift that maps an address to its line.
func (c *Cache) LineShift() uint { return c.lineBits }

// InLine reports whether [addr, addr+size) lies wholly in line, for lines
// of 1<<shift bytes: the memo's hit test, small enough to inline. (shift is
// below 64; masking it says so to the compiler.)
func InLine(addr uint64, size int64, line uint64, shift uint) bool {
	return addr>>(shift&63) == line && (addr+uint64(size)-1)>>(shift&63) == line
}

// Access simulates a cache access to addr and returns the added cycle
// penalty (0 on hit, MissCycles on miss).
func (c *Cache) Access(addr uint64) int64 {
	if addr>>c.lineBits != c.last {
		return c.AccessRange(addr, 1)
	}
	c.Accesses++
	return 0
}

// AccessRange simulates an access spanning [addr, addr+size) — e.g. a
// variable-length instruction fetch that may straddle a line boundary —
// as one access per line touched, returning the total penalty. A size of
// zero or less counts as one byte.
//
// Per line: the memo is a hit with no lookup; a hit on the set's most
// recent line is one compare; a hit further back moves that line to the
// front; a miss shifts the set back one way, which drops the LRU line, and
// fills the front.
func (c *Cache) AccessRange(addr uint64, size int64) int64 {
	if size <= 0 {
		size = 1
	}
	if c.tags == nil {
		c.tags = make([]uint64, int(c.setMask+1)*c.cfg.Ways)
	}
	var penalty int64
	for line, last := addr>>c.lineBits, (addr+uint64(size)-1)>>c.lineBits; line <= last; line++ {
		c.Accesses++
		if line == c.last {
			continue
		}
		c.last = line
		tag := line + 1 // +1 so tag 0 never collides with the invalid marker
		base := int(line&c.setMask) * c.cfg.Ways
		set := c.tags[base : base+c.cfg.Ways]
		if set[0] == tag {
			continue
		}
		w := 1
		for w < len(set) && set[w] != tag {
			w++
		}
		if w == len(set) {
			c.Misses++
			penalty += c.cfg.MissCycles
			w--
		}
		for ; w > 0; w-- {
			set[w] = set[w-1]
		}
		set[0] = tag
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
	c.last = noLine
	c.Accesses = 0
	c.Misses = 0
}

// Flush invalidates contents but keeps statistics (e.g. after migration the
// destination core starts cold).
func (c *Cache) Flush() {
	clear(c.tags)
	c.last = noLine
}
