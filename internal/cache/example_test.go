package cache_test

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/index"
)

// Example builds the paper's 8 KB two-way skewed I-Poly cache and shows
// the conflict-avoidance headline: addresses that collide catastrophically
// under conventional indexing coexist under polynomial indexing.
func Example() {
	place := index.NewIPolyDefault(2, 7, 19-5) // 128 sets, 19 address bits
	ipoly := cache.New(cache.Config{Size: 8 << 10, BlockSize: 32, Ways: 2, Placement: place})
	conv := cache.New(cache.Config{Size: 8 << 10, BlockSize: 32, Ways: 2})

	// Four blocks spaced by the cache size: one conventional set must
	// hold all four, two ways at a time.
	for round := 0; round < 25; round++ {
		for i := uint64(0); i < 4; i++ {
			conv.Access(i*8192, false)
			ipoly.Access(i*8192, false)
		}
	}
	fmt.Printf("conventional: %.0f%% misses\n", 100*conv.Stats().MissRatio())
	fmt.Printf("i-poly:       %.0f%% misses\n", 100*ipoly.Stats().MissRatio())
	fmt.Printf("widest XOR gate: %d inputs\n", place.MaxFanIn())
	// Output:
	// conventional: 100% misses
	// i-poly:       4% misses
	// widest XOR gate: 4 inputs
}
