package cache

import (
	"math/bits"

	"repro/internal/trace"
)

// FALRU is a fixed-capacity fully-associative LRU cache, O(1) per
// access: a block -> slot map plus an int32 doubly-linked recency list
// over the slots, with nothing allocated per access.  AccessStream and
// AccessBlock model the paper's write-through, non-allocating L1: loads
// fill, store hits refresh recency, store misses do not fill.  Their
// statistics equal those of a one-set Cache (or the MaxWays point of a
// one-set stack-distance engine) with Ways = capacity, LRU replacement
// and WriteAllocate off.
//
// It is not safe for concurrent use.
type FALRU struct {
	offBits uint
	slot    map[uint64]int32 // resident block -> slot
	blocks  []uint64         // slot -> block
	// prev/next link the slots from most (head) to least (tail)
	// recently used; -1 ends the list.
	prev, next []int32
	head, tail int32
	stats      Stats
}

// NewFALRU returns an empty fully-associative LRU cache holding
// capacityBlocks blocks of blockSize bytes (a power of two).
func NewFALRU(capacityBlocks, blockSize int) *FALRU {
	if capacityBlocks <= 0 {
		panic("cache: FALRU capacity must be positive")
	}
	if blockSize <= 0 || blockSize&(blockSize-1) != 0 {
		panic("cache: FALRU block size must be a positive power of two")
	}
	return &FALRU{
		offBits: uint(bits.TrailingZeros(uint(blockSize))),
		slot:    make(map[uint64]int32, capacityBlocks),
		blocks:  make([]uint64, 0, capacityBlocks),
		prev:    make([]int32, capacityBlocks),
		next:    make([]int32, capacityBlocks),
		head:    -1,
		tail:    -1,
	}
}

// Touch references block without recording statistics: a resident
// block becomes most recently used; an absent one is installed there
// when fill is set, evicting the least recently used block if the cache
// is full.  It reports whether block was resident.
func (l *FALRU) Touch(block uint64, fill bool) bool {
	if s, ok := l.slot[block]; ok {
		if s != l.head {
			l.unlink(s)
			l.pushFront(s)
		}
		return true
	}
	if !fill {
		return false
	}
	var s int32
	if len(l.blocks) < cap(l.blocks) {
		s = int32(len(l.blocks))
		l.blocks = append(l.blocks, block)
	} else {
		s = l.tail
		delete(l.slot, l.blocks[s])
		l.unlink(s)
		l.blocks[s] = block
	}
	l.slot[block] = s
	l.pushFront(s)
	return false
}

// AccessBlock records a load (write=false) or store (write=true) of a
// block address and reports whether it hit.
func (l *FALRU) AccessBlock(block uint64, write bool) bool {
	full := len(l.blocks) == cap(l.blocks)
	hit := l.Touch(block, !write)
	st := &l.stats
	st.Accesses++
	switch {
	case hit:
		st.Hits++
		if write {
			st.WriteHits++
		} else {
			st.ReadHits++
		}
	case write:
		st.Misses++
		st.WriteMiss++
	default:
		st.Misses++
		st.ReadMisses++
		st.Fills++
		if full {
			st.Evictions++
		}
	}
	return hit
}

// AccessStream replays the load/store records of recs in order,
// returning the number of accesses performed.
func (l *FALRU) AccessStream(recs []trace.Rec) uint64 {
	var n uint64
	for i := range recs {
		op := recs[i].Op
		if op != trace.OpLoad && op != trace.OpStore {
			continue
		}
		l.AccessBlock(recs[i].Addr>>l.offBits, op == trace.OpStore)
		n++
	}
	return n
}

// Stats returns the accumulated statistics.
func (l *FALRU) Stats() Stats { return l.stats }

func (l *FALRU) pushFront(s int32) {
	l.prev[s] = -1
	l.next[s] = l.head
	if l.head >= 0 {
		l.prev[l.head] = s
	}
	l.head = s
	if l.tail < 0 {
		l.tail = s
	}
}

func (l *FALRU) unlink(s int32) {
	p, n := l.prev[s], l.next[s]
	if p >= 0 {
		l.next[p] = n
	} else {
		l.head = n
	}
	if n >= 0 {
		l.prev[n] = p
	} else {
		l.tail = p
	}
}
