// Quickstart: build a conflict-avoiding (I-Poly) cache, inspect its XOR
// index network, and watch it absorb an access pattern that destroys a
// conventionally indexed cache of the same geometry.
package main

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/index"
)

// paperL1 is the paper's L1 geometry: 8 KB, 2-way, 32-byte lines,
// write-through, no write-allocate.  A nil placement is conventional
// modulo indexing.
func paperL1(place index.Placement) *cache.Cache {
	return cache.New(cache.Config{Size: 8 << 10, BlockSize: 32, Ways: 2, Placement: place})
}

// strideConflictFree reports whether walking count blocks with the given
// block stride from block 0 touches count distinct sets in way 0: the
// §2.1.2 conflict-freedom property.
func strideConflictFree(place index.Placement, blockStride uint64, count int) bool {
	seen := make(map[uint64]bool, count)
	for i := 0; i < count; i++ {
		idx := place.SetIndex(uint64(i)*blockStride, 0)
		if seen[idx] {
			return false
		}
		seen[idx] = true
	}
	return true
}

func main() {
	// Skewed I-Poly over 128 sets, hashing the 14 block-address bits
	// above the line offset of a 19-bit address (the paper's choice).
	place := index.NewIPolyDefault(2, 7, 19-5)
	ipoly := paperL1(place)
	conv := paperL1(nil)

	fmt.Println("Conflict-avoiding cache: 8KB, 2-way, 32B lines")
	fmt.Printf("Modulus polynomials: %v\n", place.Polys())
	fmt.Printf("Widest XOR gate (fan-in): %d  (paper: <= 5)\n\n", place.MaxFanIn())

	fmt.Println("Index network, way 0 (first three bits):")
	fmt.Printf("way 0: P(x) = %v\n", place.Polys()[0])
	gates := strings.SplitAfter(place.Matrix(0).GateDescription(), "\n")
	fmt.Print(strings.Join(gates[:3], ""))
	fmt.Println()

	// The §2 pathology: four blocks separated by the way size collide on
	// one set conventionally and ping-pong forever.
	fmt.Println("Walking 4 blocks spaced 8KB apart, 50 rounds:")
	for r := 0; r < 50; r++ {
		for i := uint64(0); i < 4; i++ {
			addr := i * 8192
			conv.Access(addr, false)
			ipoly.Access(addr, false)
		}
	}
	fmt.Printf("  conventional miss ratio: %6.2f%%  (repetitive conflicts)\n",
		100*conv.Stats().MissRatio())
	fmt.Printf("  I-Poly miss ratio:       %6.2f%%  (cold misses only)\n\n",
		100*ipoly.Stats().MissRatio())

	// §2.1.2: power-of-two strides are provably conflict-free for
	// set-count-long subsequences — as long as the walk stays within the
	// address bits the hash consumes (19 here, the paper's choice).
	fmt.Println("Stride conflict-freedom (128-block subsequences, way 0):")
	for _, k := range []uint{0, 3, 7} {
		fmt.Printf("  block stride 2^%-2d conflict-free: %v\n",
			k, strideConflictFree(place, 1<<k, 128))
	}
	// A 2^10 block stride walks past bit 19; widen the hash input and the
	// guarantee holds again.
	wide := index.NewIPolyDefault(2, 7, 24-5)
	fmt.Printf("  block stride 2^10 conflict-free: %v (19 hashed address bits)\n",
		strideConflictFree(place, 1<<10, 128))
	fmt.Printf("  block stride 2^10 conflict-free: %v (24 hashed address bits)\n",
		strideConflictFree(wide, 1<<10, 128))
}
