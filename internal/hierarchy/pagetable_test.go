package hierarchy

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/index"
	"repro/internal/rng"
)

// refPageTable is the original scrambled page table: every allocation
// rebuilds the in-use set from the whole vpage -> ppage map.  It is the
// oracle for the incrementally maintained set in PageTable.
type refPageTable struct {
	m   map[uint64]uint64
	rnd *rng.RNG
}

func (r *refPageTable) allocate() uint64 {
	used := make(map[uint64]bool, len(r.m))
	for _, p := range r.m {
		used[p] = true
	}
	for {
		p := r.rnd.Uint64() & (1<<34 - 1)
		if !used[p] {
			return p
		}
	}
}

func (r *refPageTable) translate(vpage uint64) uint64 {
	p, ok := r.m[vpage]
	if !ok {
		p = r.allocate()
		r.m[vpage] = p
	}
	return p
}

func (r *refPageTable) addAlias(vpage1, vpage2 uint64) {
	r.m[vpage2] = r.translate(vpage1)
}

// checkRefs asserts the in-use counts are exactly the multiset of
// mapped physical pages.
func checkRefs(t *testing.T, pt *PageTable) {
	t.Helper()
	want := make(map[uint64]int, len(pt.refs))
	for _, p := range pt.m {
		want[p]++
	}
	if len(want) != len(pt.refs) {
		t.Fatalf("refs tracks %d pages, map uses %d", len(pt.refs), len(want))
	}
	for p, n := range want {
		if pt.refs[p] != n {
			t.Fatalf("refs[%#x] = %d, want %d", p, pt.refs[p], n)
		}
	}
}

// TestPageTableMatchesRebuildAllocator drives PageTable and the
// rebuild-per-allocation oracle through the same scrambled first
// touches, aliases and re-aliases of already-mapped pages (which orphan
// a physical page and return it to the free pool), asserting identical
// mappings at every step.
func TestPageTableMatchesRebuildAllocator(t *testing.T) {
	const pageBits, seed = 12, 1997
	pt := NewPageTable(pageBits, seed)
	ref := &refPageTable{m: make(map[uint64]uint64), rnd: rng.New(seed)}
	r := rng.New(5)
	touches := 0
	var next uint64 // next never-touched vpage
	for step := 0; touches < 10000; step++ {
		var vs []uint64
		switch k := r.Intn(10); {
		case k < 7 || next < 2: // first touch of a fresh page
			v := next
			next++
			touches++
			got := pt.Translate(v<<pageBits|0x123) >> pageBits
			if want := ref.translate(v); got != want {
				t.Fatalf("step %d: first touch of vpage %d -> %#x, oracle %#x", step, v, got, want)
			}
			vs = []uint64{v}
		case k < 9: // alias, vpage2 mapped or not
			v1 := uint64(r.Intn(int(next) + 8))
			v2 := uint64(r.Intn(int(next) + 8))
			if v1 >= next {
				touches++
			}
			pt.AddAlias(v1, v2)
			ref.addAlias(v1, v2)
			vs = []uint64{v1, v2}
			for _, v := range vs {
				if v >= next {
					next = v + 1
				}
			}
		default: // re-alias an already-mapped page onto another one
			v1 := uint64(r.Intn(int(next)))
			v2 := uint64(r.Intn(int(next)))
			pt.AddAlias(v1, v2)
			ref.addAlias(v1, v2)
			vs = []uint64{v1, v2}
		}
		for _, v := range vs {
			if got, want := pt.m[v], ref.m[v]; got != want {
				t.Fatalf("step %d: vpage %d -> %#x, oracle %#x", step, v, got, want)
			}
		}
		if pt.Mapped() != len(ref.m) {
			t.Fatalf("step %d: Mapped = %d, oracle %d", step, pt.Mapped(), len(ref.m))
		}
		if step%1000 == 0 {
			checkRefs(t, pt)
		}
	}
	for v, want := range ref.m {
		if got := pt.m[v]; got != want {
			t.Fatalf("final: vpage %d -> %#x, oracle %#x", v, got, want)
		}
	}
	checkRefs(t, pt)
}

// TestPageTableReleasesOrphanedPage pins the case the refcount exists
// for: re-aliasing the only mapping of a physical page frees it, so the
// allocator may hand it out again, exactly as the rebuild oracle does.
func TestPageTableReleasesOrphanedPage(t *testing.T) {
	pt := NewPageTable(12, 3)
	pt.Translate(0)
	pt.Translate(1 << 12)
	orphan := pt.m[1]
	pt.AddAlias(0, 1)
	if _, ok := pt.refs[orphan]; ok {
		t.Fatalf("orphaned page %#x still counted in use", orphan)
	}
	if n := pt.refs[pt.m[0]]; n != 2 {
		t.Fatalf("shared page refcount = %d, want 2", n)
	}
	pt.AddAlias(0, 0) // self-alias changes nothing
	checkRefs(t, pt)
}

// TestTwoLevelInclusionRandomized is the oracle-free invariant check for
// the virtual-real hierarchy: under random loads, stores, virtual
// aliases and external (coherence) invalidations, every L1-resident
// block's physical image stays in L2 after every single operation.
func TestTwoLevelInclusionRandomized(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		cfg := Config{
			L1: cache.Config{
				Size: 2 << 10, BlockSize: 32, Ways: 2,
				Placement:     index.NewIPolyDefault(2, 5, 19),
				WriteAllocate: false,
			},
			L2: cache.Config{
				Size: 8 << 10, BlockSize: 32, Ways: 2,
				WriteBack: true, WriteAllocate: true,
			},
			ScrambleSeed: seed,
		}
		h := New(cfg)
		r := rng.New(seed)
		const pageBits, basePages = 12, 24
		pages := make([]uint64, basePages)
		for i := range pages {
			pages[i] = uint64(i)
		}
		for i := 0; i < 20000; i++ {
			switch k := r.Intn(100); {
			case k < 2:
				// Alias a fresh virtual page onto a live one: the new
				// page has never been accessed, so no L1 line carries a
				// stale translation.
				fresh := uint64(basePages + len(pages))
				h.PT.AddAlias(pages[r.Intn(len(pages))], fresh)
				pages = append(pages, fresh)
			case k < 5:
				v := pages[r.Intn(len(pages))]<<pageBits | uint64(r.Intn(1<<pageBits))
				h.ExternalInvalidate(h.PT.Translate(v) >> 5)
			default:
				v := pages[r.Intn(len(pages))]<<pageBits | uint64(r.Intn(1<<pageBits))
				h.Access(v, r.Bool(0.3))
			}
			if n := h.CheckInclusion(); n != 0 {
				t.Fatalf("seed %d op %d: %d L1 blocks missing from L2", seed, i, n)
			}
		}
		s := h.Stats()
		if s.InclusionInvalidates == 0 || s.AliasInvalidates == 0 || s.ExternalInvalidates == 0 {
			t.Fatalf("seed %d: workload missed a protocol path: %+v", seed, s)
		}
	}
}
