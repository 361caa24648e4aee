package eventsim

import "math/rand"

// NewStream derives an independent deterministic RNG from a base seed and a
// stable entity key (a node ID, a link ID). The simulator gives each switch
// and lossy link its own stream instead of sharing one engine RNG, because
// the interleaving of draws from a shared generator would depend on which
// entities landed in the same shard. Per-entity streams make every draw a
// pure function of (seed, key, entity history), so results are identical
// for any shard count.
//
// Mixing is splitmix64's finalizer over seed XOR a key spread by the golden
// ratio; adjacent keys land in uncorrelated regions of the sequence space.
func NewStream(seed int64, key uint64) *rand.Rand {
	return rand.New(rand.NewSource(StreamSeed(seed, key)))
}

// StreamSeed returns the source seed NewStream derives for (seed, key), so
// a warm entity can reseed its existing *rand.Rand in place on reset
// (rand.Rand.Seed with this value is state-identical to a fresh NewStream)
// instead of allocating a new generator.
func StreamSeed(seed int64, key uint64) int64 {
	x := uint64(seed) ^ (key * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}
