package main

import (
	"hash/fnv"
	"math/rand"
)

// seeded derives an independent deterministic stream from the benchmark
// seed for one named purpose (job order, SWIM rotation, bounce depths...).
func seeded(seed uint64, stream string) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, stream)))
}

// subSeed is the scenario seed handed to a layer's own seeded generator.
func subSeed(seed uint64, stream string) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	x := h.Sum64() ^ (seed * 0x9e3779b97f4a7c15)
	x ^= x >> 31
	return int64(x >> 1) // non-negative: several layers treat seed <= 0 as "default"
}
