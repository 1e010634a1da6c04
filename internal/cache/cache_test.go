package cache

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{SizeBytes: 1024, LineBytes: 64, Ways: 2, MissCycles: 10}
	// 16 lines, 8 sets, 2 ways
}

func TestColdMissThenHit(t *testing.T) {
	c := New(small())
	if p := c.Access(0x100); p != 10 {
		t.Fatalf("cold access penalty %d, want 10", p)
	}
	if p := c.Access(0x100); p != 0 {
		t.Fatalf("second access penalty %d, want 0", p)
	}
	if p := c.Access(0x13f); p != 0 {
		t.Fatalf("same-line access penalty %d, want 0", p)
	}
	if c.Accesses != 3 || c.Misses != 1 {
		t.Fatalf("stats %d/%d", c.Misses, c.Accesses)
	}
}

func TestAssociativityHoldsTwoWays(t *testing.T) {
	c := New(small()) // 8 sets: set = (addr>>6) & 7
	a := uint64(0x0000)
	b := uint64(0x2000) // same set (bits 6..8 zero), different tag
	c.Access(a)
	c.Access(b)
	if p := c.Access(a); p != 0 {
		t.Error("way 1 evicted prematurely")
	}
	if p := c.Access(b); p != 0 {
		t.Error("way 2 evicted prematurely")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(small())
	a, b, d := uint64(0x0000), uint64(0x2000), uint64(0x4000) // same set
	c.Access(a)
	c.Access(b)
	c.Access(a) // a most recent
	c.Access(d) // evicts b (LRU)
	if p := c.Access(a); p != 0 {
		t.Error("a evicted, want kept (MRU)")
	}
	if p := c.Access(b); p == 0 {
		t.Error("b kept, want evicted (LRU)")
	}
}

func TestAccessRangeStraddle(t *testing.T) {
	c := New(small())
	// 6 bytes ending across a line boundary: two lines, two cold misses.
	if p := c.AccessRange(0x3e, 6); p != 20 {
		t.Fatalf("straddle penalty %d, want 20", p)
	}
	if p := c.AccessRange(0x3e, 6); p != 0 {
		t.Fatalf("warm straddle penalty %d, want 0", p)
	}
}

func TestAccessRangeZeroSize(t *testing.T) {
	c := New(small())
	if p := c.AccessRange(0x80, 0); p != 10 {
		t.Fatalf("zero-size treated as 1 byte: %d", p)
	}
}

func TestFlushInvalidatesKeepsStats(t *testing.T) {
	c := New(small())
	c.Access(0x100)
	c.Access(0x100)
	c.Flush()
	if c.Accesses != 2 || c.Misses != 1 {
		t.Error("flush must keep statistics")
	}
	if p := c.Access(0x100); p != 10 {
		t.Error("flush must invalidate contents")
	}
}

func TestResetClearsEverything(t *testing.T) {
	c := New(small())
	c.Access(0x100)
	c.Reset()
	if c.Accesses != 0 || c.Misses != 0 {
		t.Error("reset must clear statistics")
	}
}

func TestMissRatio(t *testing.T) {
	c := New(small())
	if c.MissRatio() != 0 {
		t.Error("empty cache miss ratio")
	}
	c.Access(0x100)
	c.Access(0x100)
	c.Access(0x100)
	c.Access(0x100)
	if r := c.MissRatio(); r != 0.25 {
		t.Errorf("ratio %v, want 0.25", r)
	}
}

func TestDefaultL1Geometry(t *testing.T) {
	cfg := DefaultL1(12)
	if cfg.SizeBytes != 32*1024 || cfg.LineBytes != 64 || cfg.Ways != 8 {
		t.Errorf("unexpected default geometry %+v", cfg)
	}
	c := New(cfg)
	// Working set of exactly the cache size must fit (no conflict misses
	// with sequential fill).
	for i := 0; i < 512; i++ {
		c.Access(uint64(i * 64))
	}
	for i := 0; i < 512; i++ {
		if c.Access(uint64(i*64)) != 0 {
			t.Fatalf("line %d evicted from a fully fitting working set", i)
		}
	}
}

// Property: misses never exceed accesses, and a repeated single address is
// a hit after the first touch.
func TestPropertyStatsSane(t *testing.T) {
	err := quick.Check(func(addrs []uint32) bool {
		c := New(small())
		for _, a := range addrs {
			c.Access(uint64(a))
		}
		return c.Misses <= c.Accesses && c.Accesses == uint64(len(addrs))
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// Property: penalty is always 0 or a positive multiple of MissCycles.
func TestPropertyPenaltyQuantised(t *testing.T) {
	c := New(small())
	err := quick.Check(func(a uint32, sz uint8) bool {
		p := c.AccessRange(uint64(a), int64(sz%32))
		return p >= 0 && p%10 == 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestNewRejectsUnrepresentableGeometry: New refuses, naming the field, a
// geometry whose set index would alias or whose capacity is not a whole
// number of sets, and builds every representable one (a way count need not
// be a power of two). 24 KiB of 8-way 64-byte lines is 48 sets: a mask of
// 47 would leave sets 16-31 unused.
func TestNewRejectsUnrepresentableGeometry(t *testing.T) {
	for _, tc := range []struct {
		cfg   Config
		field string // "" = valid
	}{
		{DefaultL1(12), ""},
		{small(), ""},
		{Config{SizeBytes: 48 * 1024, LineBytes: 64, Ways: 12}, ""},
		{Config{SizeBytes: 512, LineBytes: 32, Ways: 1}, ""},
		{Config{SizeBytes: 24 * 1024, LineBytes: 64, Ways: 8}, "SizeBytes"},
		{Config{SizeBytes: 32*1024 + 64, LineBytes: 64, Ways: 8}, "SizeBytes"},
		{Config{SizeBytes: 256, LineBytes: 64, Ways: 8}, "SizeBytes"},
		{Config{SizeBytes: 0, LineBytes: 64, Ways: 8}, "SizeBytes"},
		{Config{SizeBytes: 24 * 1024, LineBytes: 48, Ways: 8}, "LineBytes"},
		{Config{SizeBytes: 32 * 1024, LineBytes: 0, Ways: 8}, "LineBytes"},
		{Config{SizeBytes: 32 * 1024, LineBytes: 64, Ways: 0}, "Ways"},
		{Config{SizeBytes: 32 * 1024, LineBytes: 64, Ways: -8}, "Ways"},
	} {
		var msg string
		func() {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			c := New(tc.cfg)
			c.Access(0) // the tag array is sized at the first lookup
		}()
		switch {
		case tc.field == "" && msg != "":
			t.Errorf("%+v: panicked %q, want a cache", tc.cfg, msg)
		case tc.field != "" && !strings.HasPrefix(msg, "cache: "+tc.field+" "):
			t.Errorf("%+v: panic %q, want one naming %s", tc.cfg, msg, tc.field)
		}
	}
}
