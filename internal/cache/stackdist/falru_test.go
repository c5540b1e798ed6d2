package stackdist

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/index"
	"repro/internal/rng"
	"repro/internal/trace"
)

// faEngine is the all-associativity engine whose top point cache.FALRU
// replaces: one set, MaxWays = capacity, write-through non-allocating.
func faEngine(capacity int) *Engine {
	return New(Config{Sets: 1, BlockSize: 32, MaxWays: capacity, Placement: index.Single{}})
}

// TestFALRUMatchesEngine replays seeded random load/store streams
// through cache.FALRU and the one-set stack-distance engine, and asserts
// the FALRU's statistics equal the engine's StatsAt(capacity) field for
// field.  The streams mix a hot region that fits the cache with a cold
// one that does not, so hits, capacity misses, evictions and
// non-filling store misses all occur.
func TestFALRUMatchesEngine(t *testing.T) {
	for _, capacity := range []int{1, 7, 256} {
		for _, seed := range []uint64{1, 2, 3} {
			r := rng.New(seed)
			recs := make([]trace.Rec, 50000)
			for i := range recs {
				span := capacity + capacity/2 + 1
				if r.Bool(0.2) {
					span = 8 * capacity
				}
				op := trace.OpLoad
				if r.Bool(0.3) {
					op = trace.OpStore
				}
				recs[i] = trace.Rec{Op: op, Addr: uint64(r.Intn(span))<<5 | uint64(r.Intn(32))}
			}
			e := faEngine(capacity)
			l := cache.NewFALRU(capacity, 32)
			for lo := 0; lo < len(recs); lo += 4096 {
				hi := min(lo+4096, len(recs))
				e.AccessStream(recs[lo:hi])
				l.AccessStream(recs[lo:hi])
			}
			want, got := e.StatsAt(capacity), l.Stats()
			if got != want {
				t.Fatalf("capacity %d seed %d: FALRU %+v, engine %+v", capacity, seed, got, want)
			}
			if got.WriteHits == 0 || got.WriteMiss == 0 || got.Evictions == 0 {
				t.Fatalf("capacity %d seed %d: stream missed a path: %+v", capacity, seed, got)
			}
		}
	}
}

// FuzzFALRUVsEngine is the fuzzing form of TestFALRUMatchesEngine: geom
// picks the capacity (1..16 blocks) and data decodes to one access per
// byte (low bit = store, rest = block address).
func FuzzFALRUVsEngine(f *testing.F) {
	f.Add([]byte{0, 2, 4, 6, 2, 8, 10, 3, 5, 12}, uint8(3))
	f.Add([]byte{1, 1, 0, 3, 2, 5, 4, 0, 2}, uint8(0))
	f.Add([]byte{0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x41, 0x21}, uint8(15))
	f.Fuzz(func(t *testing.T, data []byte, geom uint8) {
		capacity := int(geom&15) + 1
		e := faEngine(capacity)
		l := cache.NewFALRU(capacity, 32)
		for _, b := range data {
			blk, write := uint64(b>>1), b&1 == 1
			e.AccessBlock(blk, write)
			l.AccessBlock(blk, write)
		}
		if want, got := e.StatsAt(capacity), l.Stats(); got != want {
			t.Fatalf("capacity %d: FALRU %+v, engine %+v", capacity, got, want)
		}
	})
}
