package cache

import (
	"testing"

	"repro/internal/index"
)

func TestClassifierKinds(t *testing.T) {
	cl := NewClassifier(2)
	// First touch: compulsory.
	if k, ok := cl.Observe(1, true); !ok || k != MissCompulsory {
		t.Errorf("first miss = %v", k)
	}
	// Hit: not classified.
	if _, ok := cl.Observe(1, false); ok {
		t.Error("hit should not classify")
	}
	cl.Observe(2, true) // compulsory
	cl.Observe(3, true) // compulsory, evicts 1 from 2-entry shadow
	// Block 1 re-missed: gone from a 2-block FA cache too => capacity.
	if k, _ := cl.Observe(1, true); k != MissCapacity {
		t.Errorf("got %v, want capacity", k)
	}
	// Block 3 is still in the shadow (recently used): a miss on it is a
	// conflict miss.
	if k, _ := cl.Observe(3, true); k != MissConflict {
		t.Errorf("got %v, want conflict", k)
	}
	b := cl.Breakdown()
	if b.Compulsory != 3 || b.Capacity != 1 || b.Conflict != 1 || b.Total() != 5 {
		t.Errorf("breakdown = %+v", b)
	}
}

func TestClassifierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewClassifier(0)
}

func TestMissKindString(t *testing.T) {
	if MissCompulsory.String() != "compulsory" ||
		MissCapacity.String() != "capacity" ||
		MissConflict.String() != "conflict" ||
		MissKind(9).String() != "unknown" {
		t.Error("MissKind.String wrong")
	}
}

func TestConflictMissesVanishUnderIPoly(t *testing.T) {
	// Drive the same pathological stream through modulo and I-Poly caches
	// of identical capacity: the conflict-miss count should collapse.
	run := func(p index.Placement) MissBreakdown {
		c := New(paperL1(p))
		cl := NewClassifier(c.Config().Size / c.Config().BlockSize)
		for round := 0; round < 20; round++ {
			for i := uint64(0); i < 8; i++ {
				b := c.Block(i * 8192)
				res := c.AccessBlock(b, false)
				cl.Observe(b, !res.Hit)
			}
		}
		return cl.Breakdown()
	}
	conv := run(index.NewModulo(7))
	ipoly := run(index.NewIPolyDefault(2, 7, 14))
	if conv.Conflict == 0 {
		t.Fatal("modulo placement produced no conflict misses on a pathological stream")
	}
	if ipoly.Conflict*10 > conv.Conflict {
		t.Errorf("I-Poly conflicts (%d) not <= 10%% of modulo conflicts (%d)",
			ipoly.Conflict, conv.Conflict)
	}
	// Compulsory misses must be identical — they are placement-independent.
	if conv.Compulsory != ipoly.Compulsory {
		t.Errorf("compulsory counts differ: %d vs %d", conv.Compulsory, ipoly.Compulsory)
	}
}

func TestFALRUExactness(t *testing.T) {
	l := NewFALRU(3, 1)
	access := func(b uint64) bool { return l.Touch(b, true) }
	for _, b := range []uint64{1, 2, 3} {
		if access(b) {
			t.Errorf("cold access of %d hit", b)
		}
	}
	access(1)      // 1 MRU; order now 1,3,2
	if access(4) { // evicts 2
		t.Error("4 hit")
	}
	if access(2) {
		t.Error("2 should have been evicted")
	}
	// Now 2 MRU, order 2,4,1; 3 evicted by the miss on 2.
	if access(3) {
		t.Error("3 should have been evicted")
	}
	if !access(2) || !access(4) {
		t.Error("2 and 4 should be resident")
	}
}
