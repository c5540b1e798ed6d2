package cache

// Miss classification follows the classic three-C model the paper uses
// when it talks about "conflict misses" (§2) and about I-Poly reducing
// the miss ratio to near fully-associative levels:
//
//   - compulsory: first-ever reference to the block;
//   - capacity:   the block also misses in a fully-associative LRU cache
//     of the same capacity;
//   - conflict:   everything else — misses caused purely by the placement
//     function.

// MissKind labels a classified miss.
type MissKind int

// Miss kinds.
const (
	MissCompulsory MissKind = iota
	MissCapacity
	MissConflict
)

// String names the kind.
func (k MissKind) String() string {
	switch k {
	case MissCompulsory:
		return "compulsory"
	case MissCapacity:
		return "capacity"
	case MissConflict:
		return "conflict"
	}
	return "unknown"
}

// MissBreakdown counts misses by kind.
type MissBreakdown struct {
	Compulsory uint64
	Capacity   uint64
	Conflict   uint64
}

// Total returns the total classified misses.
func (b MissBreakdown) Total() uint64 { return b.Compulsory + b.Capacity + b.Conflict }

// Classifier tracks a shadow fully-associative LRU cache and the set of
// ever-seen blocks so each miss in the cache under test can be labelled.
type Classifier struct {
	seen   map[uint64]struct{}
	shadow *FALRU // filled on every access, loads and stores alike
	brk    MissBreakdown
}

// NewClassifier returns a classifier for a cache of the given capacity
// in blocks.
func NewClassifier(capacityBlocks int) *Classifier {
	if capacityBlocks <= 0 {
		panic("cache: classifier capacity must be positive")
	}
	return &Classifier{
		seen:   make(map[uint64]struct{}),
		shadow: NewFALRU(capacityBlocks, 1),
	}
}

// Observe must be called for every access (hit or miss) with the block
// address and whether the cache under test missed; it returns the miss
// kind when missed is true.
func (cl *Classifier) Observe(block uint64, missed bool) (MissKind, bool) {
	_, everSeen := cl.seen[block]
	cl.seen[block] = struct{}{}
	shadowHit := cl.shadow.Touch(block, true)
	if !missed {
		return 0, false
	}
	switch {
	case !everSeen:
		cl.brk.Compulsory++
		return MissCompulsory, true
	case !shadowHit:
		cl.brk.Capacity++
		return MissCapacity, true
	default:
		cl.brk.Conflict++
		return MissConflict, true
	}
}

// Breakdown returns the accumulated counts.
func (cl *Classifier) Breakdown() MissBreakdown { return cl.brk }
