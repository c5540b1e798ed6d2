package cache

import (
	"testing"

	"repro/internal/gf2"
	"repro/internal/index"
	"repro/internal/rng"
)

// TestIPolyTablesMatchApply checks the byte-table I-Poly lookup against
// the popcount BitMatrix.Apply it replaces, for every way of a skewed
// Cache and for ColumnAssociative's rehash, over every input width
// 9..64 (one-, two- and multi-table layouts and the 64-bit ^0 mask) on
// full-width random block addresses, so bits above the input width must
// be ignored.
func TestIPolyTablesMatchApply(t *testing.T) {
	const setBits, ways = 8, 4
	r := rng.New(11)
	polys := gf2.Irreducibles(setBits, ways)
	for vbits := setBits + 1; vbits <= 64; vbits++ {
		place := index.NewIPoly(polys, setBits, vbits)
		c := New(Config{Size: ways << setBits, BlockSize: 1, Ways: ways, Placement: place})
		ca := NewColumnAssociative(1<<setBits, 1, polys[0], vbits)
		rehash := gf2.NewModMatrix(polys[0], vbits)
		for i := 0; i < 2000; i++ {
			blk := r.Uint64()
			if i%4 == 0 {
				blk &= 1<<uint(vbits) - 1
			}
			for w := 0; w < ways; w++ {
				if got, want := c.pl.SetIndex(blk, w), place.Matrix(w).Apply(blk); got != want {
					t.Fatalf("vbits %d way %d block %#x: table %#x, Apply %#x", vbits, w, blk, got, want)
				}
			}
			if got, want := ca.RehashIndex(blk), rehash.Apply(blk); got != want {
				t.Fatalf("vbits %d block %#x: RehashIndex %#x, Apply %#x", vbits, blk, got, want)
			}
		}
	}
}
