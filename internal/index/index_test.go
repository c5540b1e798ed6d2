package index

import (
	"testing"
	"testing/quick"

	"repro/internal/gf2"
)

func TestModuloBasics(t *testing.T) {
	m := NewModulo(7)
	if m.Sets() != 128 || m.Bits() != 7 || m.Skewed() || m.Name() != "a2" {
		t.Fatalf("Modulo metadata wrong: %+v", m)
	}
	if got := m.SetIndex(0x12345, 0); got != 0x12345&127 {
		t.Errorf("SetIndex = %d", got)
	}
	// Way must be ignored.
	if m.SetIndex(999, 0) != m.SetIndex(999, 1) {
		t.Error("Modulo must not skew")
	}
}

func TestModuloStrideMCollides(t *testing.T) {
	// The motivating pathology (§2): blocks separated by a multiple of the
	// set count always collide under modulo placement.
	m := NewModulo(7)
	base := uint64(0x4000)
	for k := uint64(1); k < 16; k++ {
		if m.SetIndex(base, 0) != m.SetIndex(base+k*128, 0) {
			t.Fatalf("stride-128 blocks did not collide at k=%d", k)
		}
	}
}

func TestXORFoldRange(t *testing.T) {
	x := NewXORFold(7, true)
	f := func(b uint64, way uint8) bool {
		return x.SetIndex(b, int(way%2)) < uint64(x.Sets())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXORFoldNames(t *testing.T) {
	if NewXORFold(7, true).Name() != "a2-Hx-Sk" || NewXORFold(7, false).Name() != "a2-Hx" {
		t.Error("XORFold names wrong")
	}
}

func TestXORFoldSkewDiffersBetweenWays(t *testing.T) {
	x := NewXORFold(7, true)
	diff := 0
	for b := uint64(0); b < 4096; b++ {
		if x.SetIndex(b, 0) != x.SetIndex(b, 1) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("skewed XORFold never separated ways")
	}
	u := NewXORFold(7, false)
	for b := uint64(0); b < 4096; b++ {
		if u.SetIndex(b, 0) != u.SetIndex(b, 1) {
			t.Fatal("unskewed XORFold differed between ways")
		}
	}
}

func TestXORFoldKnown(t *testing.T) {
	x := NewXORFold(4, false)
	// block = hi:0b1010, lo:0b0101 -> index 0b1111
	if got := x.SetIndex(0b1010_0101, 0); got != 0b1111 {
		t.Errorf("SetIndex = %#b", got)
	}
}

func TestRotl(t *testing.T) {
	if got := rotl(0b0001, 1, 4); got != 0b0010 {
		t.Errorf("rotl = %#b", got)
	}
	if got := rotl(0b1000, 1, 4); got != 0b0001 {
		t.Errorf("rotl wrap = %#b", got)
	}
	if got := rotl(0b1010, 0, 4); got != 0b1010 {
		t.Errorf("rotl 0 = %#b", got)
	}
}

func TestIPolyMatchesDirectMod(t *testing.T) {
	p := gf2.Irreducibles(7, 1)[0]
	ip := NewIPoly([]gf2.Poly{p}, 7, 14)
	f := func(b uint64) bool {
		masked := b & (1<<14 - 1)
		want := uint64(gf2.Poly(masked).Mod(p))
		return ip.SetIndex(b, 0) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIPolyRange(t *testing.T) {
	ip := NewIPolyDefault(2, 7, 14)
	f := func(b uint64, way uint8) bool {
		return ip.SetIndex(b, int(way%2)) < uint64(ip.Sets())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIPolySkewNames(t *testing.T) {
	if NewIPolyDefault(2, 7, 14).Name() != "a2-Hp-Sk" {
		t.Error("skewed name wrong")
	}
	if NewIPolyDefault(1, 7, 14).Name() != "a2-Hp" {
		t.Error("unskewed name wrong")
	}
}

func TestIPolyStride2kConflictFree(t *testing.T) {
	// §2.1.2: strides of the form 2^k produce conflict-free M-long
	// subsequences.  For each 2^k stride, walking M consecutive strided
	// blocks must touch M distinct indices (direct-mapped view, way 0).
	// The guarantee holds while the walk stays within the hashed bits:
	// 128 blocks of stride 2^k span 7+k bits.
	M := uint64(128)
	for _, tc := range []struct {
		ways, vbits int
		maxK        uint
	}{
		{1, 19, 10},
		{2, 14, 6}, // the paper's L1: 19 address bits, 32-byte lines
	} {
		ip := NewIPolyDefault(tc.ways, 7, tc.vbits)
		for k := uint(0); k <= tc.maxK; k++ {
			stride := uint64(1) << k
			seen := make(map[uint64]bool, M)
			for i := uint64(0); i < M; i++ {
				idx := ip.SetIndex(i*stride, 0)
				if seen[idx] {
					t.Fatalf("vbits %d, stride 2^%d: index %d repeated within %d-long subsequence", tc.vbits, k, idx, M)
				}
				seen[idx] = true
			}
		}
	}
}

func TestModuloLargePow2StrideDegenerates(t *testing.T) {
	// Contrast with the above: under modulo placement a 2^k stride with
	// k >= index bits maps everything to one set.
	m := NewModulo(7)
	stride := uint64(1) << 9
	first := m.SetIndex(0, 0)
	for i := uint64(1); i < 64; i++ {
		if m.SetIndex(i*stride, 0) != first {
			t.Fatal("expected total degeneration under modulo for 2^9 stride")
		}
	}
}

func TestIPolyInputBitsAndPolys(t *testing.T) {
	custom := []gf2.Poly{gf2.Irreducibles(7, 3)[2], gf2.Irreducibles(7, 3)[0]}
	for _, tc := range []struct {
		name string
		ip   *IPoly
		want []gf2.Poly
	}{
		{"skewed default", NewIPolyDefault(2, 7, 14), gf2.Irreducibles(7, 2)},
		{"shared default", NewIPolyDefault(1, 7, 14), gf2.Irreducibles(7, 1)},
		{"custom", NewIPoly(custom, 7, 14), custom},
	} {
		if tc.ip.InputBits() != 14 || tc.ip.Sets() != 128 {
			t.Errorf("%s: InputBits = %d, Sets = %d", tc.name, tc.ip.InputBits(), tc.ip.Sets())
		}
		got := tc.ip.Polys()
		if len(got) != len(tc.want) {
			t.Fatalf("%s: Polys = %v, want %v", tc.name, got, tc.want)
		}
		for i, p := range got {
			if p != tc.want[i] || !gf2.Irreducible(p) || p.Degree() != 7 {
				t.Errorf("%s: Polys = %v, want %v", tc.name, got, tc.want)
			}
		}
	}
	ip := NewIPolyDefault(2, 7, 14)
	ps := ip.Polys()
	if ps[0] == ps[1] {
		t.Errorf("skewed default polynomials not distinct: %v", ps)
	}
	// Mutating the returned slice must not affect the placement.
	ps[0] = 0
	if ip.Polys()[0] == 0 {
		t.Error("Polys returned internal slice")
	}
}

func TestIPolyMaxFanInBounded(t *testing.T) {
	// The paper's L1 hash needs at most 5-input XOR gates (§3.4).
	ip := NewIPolyDefault(2, 7, 14)
	if f := ip.MaxFanIn(); f < 2 || f > 5 {
		t.Errorf("MaxFanIn = %d, want 2..5", f)
	}
}

func TestIPolyPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"no polys":    func() { NewIPoly(nil, 7, 14) },
		"vbits <= m":  func() { NewIPolyDefault(1, 7, 7) },
		"vbits > 64":  func() { NewIPolyDefault(1, 7, 65) },
		"wrong deg":   func() { NewIPoly([]gf2.Poly{gf2.Irreducibles(6, 1)[0]}, 7, 14) },
		"bad bits":    func() { NewModulo(-1) },
		"bits too hi": func() { NewModulo(31) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSchemeFactory(t *testing.T) {
	for _, s := range []Scheme{SchemeModulo, SchemeXOR, SchemeXORSk, SchemeIPoly, SchemeIPolySk, SchemeSingle} {
		p, err := New(s, 7, 2, 14)
		if err != nil {
			t.Fatalf("New(%s): %v", s, err)
		}
		if s == SchemeSingle {
			if p.Sets() != 1 {
				t.Errorf("single placement has %d sets", p.Sets())
			}
			continue
		}
		if p.Sets() != 128 {
			t.Errorf("New(%s).Sets() = %d", s, p.Sets())
		}
		if string(s) != p.Name() && s != SchemeIPoly && s != SchemeIPolySk && s != SchemeXOR && s != SchemeXORSk {
			t.Errorf("scheme %s produced placement named %s", s, p.Name())
		}
	}
	if _, err := New("bogus", 7, 2, 14); err == nil {
		t.Error("unknown scheme must error")
	}
}

func TestMustNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on unknown scheme")
		}
	}()
	MustNew("nope", 7, 2, 14)
}

func TestAllSchemes(t *testing.T) {
	all := AllSchemes()
	if len(all) != 4 || all[0] != SchemeModulo || all[3] != SchemeIPolySk {
		t.Errorf("AllSchemes = %v", all)
	}
}

func TestSingle(t *testing.T) {
	var s Single
	if s.SetIndex(123456, 3) != 0 || s.Sets() != 1 || s.Skewed() || s.Name() != "fa" {
		t.Error("Single placement wrong")
	}
}

func TestXORShuffleRangeAndSkew(t *testing.T) {
	x := NewXORShuffle(7)
	if x.Sets() != 128 || !x.Skewed() || x.Name() != "a2-Hx2-Sk" || x.Bits() != 7 {
		t.Fatal("metadata wrong")
	}
	f := func(b uint64, way uint8) bool {
		return x.SetIndex(b, int(way%2)) < uint64(x.Sets())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Skewing must separate ways for a good fraction of blocks.
	diff := 0
	for b := uint64(0); b < 4096; b++ {
		if x.SetIndex(b, 0) != x.SetIndex(b, 1) {
			diff++
		}
	}
	if diff < 1000 {
		t.Errorf("shuffle skew separated only %d/4096 blocks", diff)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	for _, width := range []int{4, 6, 7, 8} {
		seen := make(map[uint64]bool)
		for v := uint64(0); v < 1<<uint(width); v++ {
			s := shuffle(v, width)
			if s >= 1<<uint(width) {
				t.Fatalf("width %d: shuffle(%d) = %d out of range", width, v, s)
			}
			if seen[s] {
				t.Fatalf("width %d: shuffle not injective at %d", width, v)
			}
			seen[s] = true
		}
	}
}

func TestShuffleKnown(t *testing.T) {
	// width 4: bits (b3 b2 b1 b0) -> (b3 b1 b2 b0): low half {b0,b1} to
	// even positions, high half {b2,b3} to odd positions.
	if got := shuffle(0b0011, 4); got != 0b0101 {
		t.Errorf("shuffle(0011) = %04b, want 0101", got)
	}
	if got := shuffle(0b1100, 4); got != 0b1010 {
		t.Errorf("shuffle(1100) = %04b, want 1010", got)
	}
}
