// Package core_test checks the paper's headline claims end to end on the
// library's building blocks: the paper's L1 (8 KB, 2-way, 32-byte lines)
// built with cache.New over the I-Poly placement from internal/index,
// against the conventional modulo baseline.  The directory holds tests
// only; the constructors live in internal/cache and internal/index.
package core_test

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/gf2"
	"repro/internal/index"
)

// Paper geometry: 128 sets of 2 ways, hashing the 14 block-address bits
// above the line offset of a 19-bit address.
const (
	setBits = 7
	ways    = 2
	vbits   = 19 - 5
)

// paperL1 builds the paper's L1; a nil placement is conventional modulo
// indexing.
func paperL1(place index.Placement) *cache.Cache {
	return cache.New(cache.Config{Size: 8 << 10, BlockSize: 32, Ways: ways, Placement: place})
}

func skewedIPoly() *index.IPoly { return index.NewIPolyDefault(ways, setBits, vbits) }

// strideConflictFree reports whether walking count blocks with the given
// block stride from block 0 touches count distinct sets in way 0 (§2.1.2).
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

// walkFourBlocks8KApart runs the §2 pathology: four blocks one way size
// apart, ten rounds of loads.
func walkFourBlocks8KApart(c *cache.Cache) {
	for r := 0; r < 10; r++ {
		for i := uint64(0); i < 4; i++ {
			c.Access(i*8192, false)
		}
	}
}

func TestNewDefaults(t *testing.T) {
	ip := skewedIPoly()
	c := paperL1(ip)
	if got := c.Placement().Sets(); got != 128 {
		t.Errorf("Sets = %d", got)
	}
	if !c.Placement().Skewed() {
		t.Error("default I-Poly placement should be skewed")
	}
	ps := ip.Polys()
	if len(ps) != 2 || ps[0] == ps[1] {
		t.Errorf("expected 2 distinct polynomials, got %v", ps)
	}
	for _, p := range ps {
		if !gf2.Irreducible(p) || p.Degree() != setBits {
			t.Errorf("bad default polynomial %v", p)
		}
	}
}

func TestAccessAndStats(t *testing.T) {
	c := paperL1(skewedIPoly())
	if c.Access(0x1000, false).Hit {
		t.Error("cold load hit")
	}
	if !c.Access(0x1000, false).Hit {
		t.Error("warm load missed")
	}
	if !c.Access(0x1008, true).Hit {
		t.Error("store to resident line missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 {
		t.Errorf("stats = %+v", s)
	}
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Error("ResetStats failed")
	}
	c.Flush()
	if c.Access(0x1000, false).Hit {
		t.Error("hit after Flush")
	}
}

func TestConventionalBaseline(t *testing.T) {
	c := paperL1(nil)
	if _, ok := c.Placement().(*index.IPoly); ok {
		t.Error("conventional cache should have no polynomial placement")
	}
	if c.Placement().Skewed() {
		t.Error("conventional placement should not be skewed")
	}
	// Thrash check: 4 blocks 8 KB apart collide in one set.
	walkFourBlocks8KApart(c)
	if mr := c.Stats().MissRatio(); mr < 0.9 {
		t.Errorf("conventional should thrash: %.2f", mr)
	}
}

func TestIPolyAvoidsThrash(t *testing.T) {
	c := paperL1(skewedIPoly())
	walkFourBlocks8KApart(c)
	if mr := c.Stats().MissRatio(); mr > 0.3 {
		t.Errorf("I-Poly should avoid the 8KB-stride pathology: %.2f", mr)
	}
}

func TestGateNetworkAndFanIn(t *testing.T) {
	ip := skewedIPoly()
	for w := range ip.Polys() {
		gn := ip.Matrix(w).GateDescription()
		if !strings.Contains(gn, "index[0]") || !strings.Contains(gn, "index[6]") {
			t.Errorf("way %d gate network incomplete:\n%s", w, gn)
		}
	}
	if f := ip.MaxFanIn(); f < 2 || f > 7 {
		t.Errorf("MaxFanIn = %d implausible", f)
	}
}

func TestStrideConflictFreedom(t *testing.T) {
	ip := skewedIPoly()
	// §2.1.2: all power-of-two block strides are conflict-free for
	// M-long subsequences.
	for k := uint(0); k <= 6; k++ {
		if !strideConflictFree(ip, 1<<k, 128) {
			t.Errorf("stride 2^%d not conflict-free", k)
		}
	}
	// The conventional function degenerates on stride = sets.
	if strideConflictFree(index.NewModulo(setBits), 128, 128) {
		t.Error("conventional placement cannot be conflict-free on stride 128")
	}
}

func TestCustomPolynomials(t *testing.T) {
	want := gf2.Irreducibles(setBits, 2)
	got := index.NewIPoly(want, setBits, vbits).Polys()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("polynomials not honoured: %v", got)
	}
}

func TestSharedPolynomial(t *testing.T) {
	place := index.MustNew(index.SchemeIPoly, setBits, ways, vbits)
	ip, ok := place.(*index.IPoly)
	if !ok {
		t.Fatalf("%s placement is %T, want *index.IPoly", index.SchemeIPoly, place)
	}
	if len(ip.Polys()) != 1 || ip.Skewed() {
		t.Errorf("shared indexing should have one polynomial: %v", ip.Polys())
	}
}
