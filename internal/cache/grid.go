// Grid is the single-pass multi-configuration simulation engine: one
// trace replay advances every configuration point of a design-space
// grid.  The experiment drivers use it to turn "one trace pass per
// design point" into "one trace pass per benchmark" — trace decode,
// chunk iteration and address pre-splitting are paid once per chunk and
// shared by all configurations, while each configuration's simulation
// is bit-identical to an independent Cache built from the same Config
// (pinned by grid_diff_test.go and FuzzGridAccess).
//
// Layout: all configurations' lines live in shared struct-of-arrays
// backing slices — one uint64 tag slice, one packed valid/dirty byte
// slice, and recency stamps allocated only when some configuration's
// replacement policy reads them — with configuration k's set-major
// region starting at its precomputed base offset.  Hot-path tag probes
// therefore touch 8-byte entries instead of 32-byte line structs, and
// configurations that never consult LRU/FIFO stamps (direct-mapped
// points, random/PLRU replacement) skip stamp maintenance entirely.
// Placement functions are devirtualized per configuration at NewGrid
// (the same Placer compilation Cache uses), so the per-record inner loop
// is monomorphic and allocation-free.
package cache

import (
	"math/bits"

	"repro/internal/rng"
	"repro/internal/trace"
)

// GridSpec lists the configuration points of a Grid, one Config per
// point.  Order is significant: stats are reported in spec order.
type GridSpec []Config

// GridStats is the per-configuration statistics vector of a Grid, in
// spec order.
type GridStats []Stats

// Line-state bits of Grid.state.
const (
	lineValid uint8 = 1 << iota
	lineDirty
)

// gridNoTag fills invalid lines' tag slots: with a nonzero block shift
// no real block address reaches it, so a sentinel-scanning point's hit
// probe is a single tag compare.
const gridNoTag = ^uint64(0)

// gridPoint is one configuration's simulation state.  The line arrays
// live in the Grid's shared backing slices starting at base.
type gridPoint struct {
	cfg  Config
	sets int
	ways int
	// shift is the extra block shift the replay loop applies: 0 when the
	// grid pre-splits addresses into block addresses (uniform block
	// size), the point's offset bits otherwise.
	shift uint

	// pl carries the compiled index, I-Poly byte tables included; the
	// hot loops read pl.ipoly directly to inline the two-table apply.
	pl Placer

	base    int      // first line index in the backing arrays
	plru    []uint64 // tree-PLRU state per set (PLRU only)
	scratch []uint64 // per-way set indices of the current skewed access

	// needLast / needIns gate recency-stamp maintenance: lastUse is only
	// read by LRU victim choice, inserted only by FIFO, and neither
	// matters with a single way.
	needLast bool
	needIns  bool
	// sentinel marks points whose hit scan compares tags alone: with a
	// nonzero block shift no real block address can equal gridNoTag, so
	// an invalid line's tag slot (initialized to gridNoTag, never
	// invalidated) can't produce a false hit and the per-way valid-bit
	// load disappears from the hot probe.  Points with BlockSize 1 keep
	// the state-checked scan.
	sentinel bool
	wb       bool // cfg.WriteBack (hoisted for the inner loops)
	wa       bool // cfg.WriteAllocate

	clock uint64
	rnd   *rng.RNG
	stats Stats
}

// Grid simulates every configuration of a GridSpec in one pass over a
// trace.  It is not safe for concurrent use.
type Grid struct {
	pts []gridPoint

	// Shared SoA backing: blocks holds tags, state the valid/dirty bits,
	// lastUse/inserted the recency stamps (nil when no point needs them).
	blocks   []uint64
	state    []uint8
	lastUse  []uint64
	inserted []uint64

	// uniform is true when every point shares one block size, letting
	// AccessStream pre-split addresses into block addresses once.
	uniform bool
	shift   uint

	// Chunk scratch reused across AccessStream calls: the memory records
	// of the current chunk, pre-split.
	blkbuf []uint64
	wrbuf  []bool
}

// NewGrid builds a grid over the given configuration points.  It panics
// on an empty spec and applies the same per-configuration validation as
// New (geometry, placement set count, PLRU constraints).
func NewGrid(spec GridSpec) *Grid {
	if len(spec) == 0 {
		panic("cache: NewGrid needs at least one configuration")
	}
	g := &Grid{pts: make([]gridPoint, len(spec))}
	total := 0
	needLast, needIns := false, false
	g.uniform = true
	for k, cfg := range spec {
		sets, place := resolveGeometry(cfg)
		p := &g.pts[k]
		p.cfg = cfg
		p.sets = sets
		p.ways = cfg.Ways
		p.shift = uint(bits.TrailingZeros(uint(cfg.BlockSize)))
		p.pl = NewPlacer(place, sets, cfg.Ways)
		p.base = total
		total += sets * cfg.Ways
		if cfg.Replacement == PLRU {
			p.plru = make([]uint64, sets)
		}
		if p.pl.skewed {
			p.scratch = make([]uint64, cfg.Ways)
		}
		p.needLast = cfg.Ways > 1 && cfg.Replacement == LRU
		p.needIns = cfg.Ways > 1 && cfg.Replacement == FIFO
		needLast = needLast || p.needLast
		needIns = needIns || p.needIns
		p.sentinel = cfg.BlockSize > 1
		p.wb = cfg.WriteBack
		p.wa = cfg.WriteAllocate
		p.rnd = rng.New(cfg.Seed ^ 0xCAFE)
		if k > 0 && p.shift != g.pts[0].shift {
			g.uniform = false
		}
	}
	g.blocks = make([]uint64, total)
	for i := range g.blocks {
		g.blocks[i] = gridNoTag
	}
	g.state = make([]uint8, total)
	if needLast {
		g.lastUse = make([]uint64, total)
	}
	if needIns {
		g.inserted = make([]uint64, total)
	}
	if g.uniform {
		// Pre-split produces block addresses; the per-point replay loops
		// apply no further shift.  With mixed block sizes the pre-split
		// keeps raw addresses and each point shifts itself.
		g.shift = g.pts[0].shift
		for k := range g.pts {
			g.pts[k].shift = 0
		}
	}
	return g
}

// Len returns the number of configuration points.
func (g *Grid) Len() int { return len(g.pts) }

// Config returns point k's configuration.
func (g *Grid) Config(k int) Config { return g.pts[k].cfg }

// StatsAt returns a copy of point k's accumulated statistics.
func (g *Grid) StatsAt(k int) Stats { return g.pts[k].stats }

// Stats returns a copy of every point's statistics, in spec order.
func (g *Grid) Stats() GridStats {
	out := make(GridStats, len(g.pts))
	for k := range g.pts {
		out[k] = g.pts[k].stats
	}
	return out
}

// ResetStats zeroes every point's statistics without disturbing cache
// contents or replacement state (the Grid analogue of Cache.ResetStats).
func (g *Grid) ResetStats() {
	for k := range g.pts {
		g.pts[k].stats = Stats{}
	}
}

// Reset returns the grid to its just-constructed state: all lines
// invalid, statistics zeroed, clocks and replacement RNG streams
// re-seeded.  A Reset grid behaves bit-identically to a fresh
// NewGrid of the same spec, without reallocating the backing arrays.
func (g *Grid) Reset() {
	for i := range g.blocks {
		g.blocks[i] = gridNoTag
	}
	for i := range g.state {
		g.state[i] = 0
	}
	for k := range g.pts {
		p := &g.pts[k]
		p.stats = Stats{}
		p.clock = 0
		p.rnd = rng.New(p.cfg.Seed ^ 0xCAFE)
		for i := range p.plru {
			p.plru[i] = 0
		}
	}
}

// AccessStream replays the load/store records of recs in order through
// every configuration point (loads as reads, stores as writes), skipping
// non-memory records, and returns the number of accesses performed per
// point.  The chunk is decoded and pre-split exactly once: the memory
// records' addresses and write flags are extracted into reusable scratch
// buffers, then each point's monomorphic replay loop consumes them.
// Point k's state and statistics afterwards are bit-identical to an
// independent Cache fed the same records.
func (g *Grid) AccessStream(recs []trace.Rec) uint64 {
	blks := g.blkbuf[:0]
	wr := g.wrbuf[:0]
	shift := uint(0)
	if g.uniform {
		shift = g.shift
	}
	for i := range recs {
		op := recs[i].Op
		if op != trace.OpLoad && op != trace.OpStore {
			continue
		}
		blks = append(blks, recs[i].Addr>>shift)
		wr = append(wr, op == trace.OpStore)
	}
	g.blkbuf, g.wrbuf = blks, wr
	for k := range g.pts {
		p := &g.pts[k]
		switch {
		case p.pl.skewed && p.sentinel && p.ways == 2:
			g.replaySkewed2(p, blks, wr)
		case p.pl.skewed && p.sentinel && p.ways == 4 &&
			p.cfg.Replacement == LRU && p.pl.ipoly.tab2 != nil:
			g.replaySkewed4LRU(p, blks, wr)
		case p.pl.skewed && p.sentinel:
			g.replaySkewed(p, blks, wr)
		case p.pl.skewed:
			g.replaySkewedState(p, blks, wr)
		case p.ways == 1 && p.plru == nil && p.sentinel:
			g.replayDM(p, blks, wr)
		case p.sentinel && p.ways == 2:
			g.replayUniform2(p, blks, wr)
		case p.sentinel && p.ways == 4 && p.plru == nil && p.cfg.Replacement == LRU:
			g.replayUniform4LRU(p, blks, wr)
		case p.sentinel:
			g.replayUniform(p, blks, wr)
		default:
			g.replayUniformState(p, blks, wr)
		}
	}
	return uint64(len(blks))
}

// replayDM is the direct-mapped fast path: no way scan, no victim
// choice, no recency stamps — one index computation, one tag probe, one
// conditional fill per record.
func (g *Grid) replayDM(p *gridPoint, blks []uint64, wr []bool) {
	blocks, state := g.blocks, g.state
	wb, wa := p.wb, p.wa
	modulo := p.pl.kind == pkModulo
	var tab2 *[512]uint32
	if p.pl.ipoly.tab2 != nil {
		tab2 = &p.pl.ipoly.tab2[0]
	}
	st := p.stats
	for i, blk := range blks {
		blk >>= p.shift
		write := wr[i]
		st.Accesses++
		var s uint64
		switch {
		case modulo:
			s = blk & p.pl.setMask
		case tab2 != nil:
			a := blk & p.pl.ipoly.mask
			s = uint64(tab2[a&0xff] ^ tab2[256|int(a>>8)])
		default:
			s = p.pl.SetIndex(blk, 0)
		}
		li := p.base + int(s)
		if blocks[li] == blk {
			st.Hits++
			if write {
				st.WriteHits++
				if wb {
					state[li] |= lineDirty
				}
			} else {
				st.ReadHits++
			}
			continue
		}
		st.Misses++
		if write {
			st.WriteMiss++
			if !wa {
				// Write-through non-allocating store miss: no fill.
				continue
			}
		} else {
			st.ReadMisses++
		}
		if blocks[li] != gridNoTag {
			st.Evictions++
			if wb && state[li]&lineDirty != 0 {
				st.Writebacks++
			}
		}
		blocks[li] = blk
		if wb {
			s8 := lineValid
			if write {
				s8 |= lineDirty
			}
			state[li] = s8
		}
		st.Fills++
	}
	p.stats = st
	p.clock += uint64(len(blks))
}

// replayUniform drives one non-skewed point through the pre-split chunk,
// mirroring Cache.accessUniform decision-for-decision.  Statistics and
// the recency clock accumulate in locals and flush once per chunk, so
// the inner loop's bookkeeping is register arithmetic rather than
// per-access memory read-modify-writes; the hit scan is a pure
// sentinel-tag compare.
func (g *Grid) replayUniform(p *gridPoint, blks []uint64, wr []bool) {
	blocks, state := g.blocks, g.state
	ways := p.ways
	wb, wa := p.wb, p.wa
	modulo := p.pl.kind == pkModulo
	st := p.stats
	clock := p.clock
	for i, blk := range blks {
		blk >>= p.shift
		write := wr[i]
		clock++
		st.Accesses++
		var s uint64
		if modulo {
			s = blk & p.pl.setMask
		} else {
			s = p.pl.SetIndex(blk, 0)
		}
		base := p.base + int(s)*ways
		set := blocks[base : base+ways]
		hit := -1
		for w, tag := range set {
			if tag == blk {
				hit = w
				break
			}
		}
		if hit >= 0 {
			li := base + hit
			st.Hits++
			if write {
				st.WriteHits++
				if wb {
					state[li] |= lineDirty
				}
			} else {
				st.ReadHits++
			}
			if p.needLast {
				g.lastUse[li] = clock
			}
			if p.plru != nil {
				plruTouchWord(&p.plru[s], ways, hit)
			}
			continue
		}
		st.Misses++
		if write {
			st.WriteMiss++
			if !wa {
				// Write-through non-allocating store miss: no fill.
				continue
			}
		} else {
			st.ReadMisses++
		}
		w := -1
		for v, tag := range set {
			if tag == gridNoTag {
				w = v
				break
			}
		}
		if w < 0 {
			switch p.cfg.Replacement {
			case FIFO:
				// With a single way the stamps are unmaintained and the
				// victim is forced (likewise for LRU below).
				w = 0
				if p.needIns {
					bestAge := ^uint64(0)
					for v, t := range g.inserted[base : base+ways] {
						if t < bestAge {
							w, bestAge = v, t
						}
					}
				}
			case Random:
				w = p.rnd.Intn(ways)
			case PLRU:
				w = plruVictimWord(p.plru[s], ways)
			default: // LRU
				w = 0
				if p.needLast {
					bestAge := ^uint64(0)
					for v, t := range g.lastUse[base : base+ways] {
						if t < bestAge {
							w, bestAge = v, t
						}
					}
				}
			}
		}
		g.installFast(p, &st, clock, base+w, blk, write)
		if p.plru != nil {
			plruTouchWord(&p.plru[s], ways, w)
		}
	}
	p.stats = st
	p.clock = clock
}

// replayUniformState is replayUniform for points that cannot use the
// sentinel scan (BlockSize 1, where every tag value is reachable): the
// valid bit is checked explicitly on every probe.
func (g *Grid) replayUniformState(p *gridPoint, blks []uint64, wr []bool) {
	blocks, state := g.blocks, g.state
	ways := p.ways
	wb, wa := p.wb, p.wa
	st := p.stats
	clock := p.clock
	for i, blk := range blks {
		blk >>= p.shift
		write := wr[i]
		clock++
		st.Accesses++
		s := p.pl.SetIndex(blk, 0)
		base := p.base + int(s)*ways
		hit := -1
		for w := 0; w < ways; w++ {
			li := base + w
			if state[li]&lineValid != 0 && blocks[li] == blk {
				hit = w
				break
			}
		}
		if hit >= 0 {
			li := base + hit
			st.Hits++
			if write {
				st.WriteHits++
				if wb {
					state[li] |= lineDirty
				}
			} else {
				st.ReadHits++
			}
			if p.needLast {
				g.lastUse[li] = clock
			}
			if p.plru != nil {
				plruTouchWord(&p.plru[s], ways, hit)
			}
			continue
		}
		st.Misses++
		if write {
			st.WriteMiss++
			if !wa {
				continue
			}
		} else {
			st.ReadMisses++
		}
		w := -1
		for v := 0; v < ways; v++ {
			if state[base+v]&lineValid == 0 {
				w = v
				break
			}
		}
		if w < 0 {
			switch p.cfg.Replacement {
			case FIFO:
				w = 0
				if p.needIns {
					bestAge := ^uint64(0)
					for v := 0; v < ways; v++ {
						if t := g.inserted[base+v]; t < bestAge {
							w, bestAge = v, t
						}
					}
				}
			case Random:
				w = p.rnd.Intn(ways)
			case PLRU:
				w = plruVictimWord(p.plru[s], ways)
			default: // LRU
				w = 0
				if p.needLast {
					bestAge := ^uint64(0)
					for v := 0; v < ways; v++ {
						if t := g.lastUse[base+v]; t < bestAge {
							w, bestAge = v, t
						}
					}
				}
			}
		}
		g.installState(p, &st, clock, base+w, blk, write && wb)
		if p.plru != nil {
			plruTouchWord(&p.plru[s], ways, w)
		}
	}
	p.stats = st
	p.clock = clock
}

// replayUniform2 is replayUniform unrolled for the most common
// associativity: both probes, the invalid-way check and the LRU/FIFO
// victim comparison are straight-line code.
func (g *Grid) replayUniform2(p *gridPoint, blks []uint64, wr []bool) {
	blocks, state := g.blocks, g.state
	wb, wa := p.wb, p.wa
	modulo := p.pl.kind == pkModulo
	st := p.stats
	clock := p.clock
	for i, blk := range blks {
		blk >>= p.shift
		write := wr[i]
		clock++
		st.Accesses++
		var s uint64
		if modulo {
			s = blk & p.pl.setMask
		} else {
			s = p.pl.SetIndex(blk, 0)
		}
		base := p.base + int(s)*2
		var li int
		if blocks[base] == blk {
			li = base
		} else if blocks[base+1] == blk {
			li = base + 1
		} else {
			st.Misses++
			if write {
				st.WriteMiss++
				if !wa {
					continue
				}
			} else {
				st.ReadMisses++
			}
			w := 0
			switch {
			case blocks[base] == gridNoTag:
			case blocks[base+1] == gridNoTag:
				w = 1
			default:
				switch p.cfg.Replacement {
				case FIFO:
					if g.inserted[base+1] < g.inserted[base] {
						w = 1
					}
				case Random:
					w = p.rnd.Intn(2)
				case PLRU:
					w = plruVictimWord(p.plru[s], 2)
				default: // LRU; ties keep the lower way
					if g.lastUse[base+1] < g.lastUse[base] {
						w = 1
					}
				}
			}
			g.installFast(p, &st, clock, base+w, blk, write)
			if p.plru != nil {
				plruTouchWord(&p.plru[s], 2, w)
			}
			continue
		}
		st.Hits++
		if write {
			st.WriteHits++
			if wb {
				state[li] |= lineDirty
			}
		} else {
			st.ReadHits++
		}
		if p.needLast {
			g.lastUse[li] = clock
		}
		if p.plru != nil {
			plruTouchWord(&p.plru[s], 2, li-base)
		}
	}
	p.stats = st
	p.clock = clock
}

// replayUniform4LRU is replayUniform unrolled for 4-way LRU (the other
// common sweep associativity): all four probes issue from one
// contiguous 32-byte set region, and the victim falls out of a strict
// left-biased comparison tournament identical to the sequential
// minimum scan.
func (g *Grid) replayUniform4LRU(p *gridPoint, blks []uint64, wr []bool) {
	blocks, state := g.blocks, g.state
	wb, wa := p.wb, p.wa
	modulo := p.pl.kind == pkModulo
	st := p.stats
	clock := p.clock
	for i, blk := range blks {
		blk >>= p.shift
		write := wr[i]
		clock++
		st.Accesses++
		var s uint64
		if modulo {
			s = blk & p.pl.setMask
		} else {
			s = p.pl.SetIndex(blk, 0)
		}
		base := p.base + int(s)*4
		set := blocks[base : base+4 : base+4]
		hit := -1
		switch blk {
		case set[0]:
			hit = 0
		case set[1]:
			hit = 1
		case set[2]:
			hit = 2
		case set[3]:
			hit = 3
		}
		if hit >= 0 {
			li := base + hit
			st.Hits++
			if write {
				st.WriteHits++
				if wb {
					state[li] |= lineDirty
				}
			} else {
				st.ReadHits++
			}
			g.lastUse[li] = clock
			continue
		}
		st.Misses++
		if write {
			st.WriteMiss++
			if !wa {
				continue
			}
		} else {
			st.ReadMisses++
		}
		var w int
		switch gridNoTag {
		case set[0]:
			w = 0
		case set[1]:
			w = 1
		case set[2]:
			w = 2
		case set[3]:
			w = 3
		default:
			lu := g.lastUse[base : base+4 : base+4]
			a, b := 0, 2
			if lu[1] < lu[0] {
				a = 1
			}
			if lu[3] < lu[2] {
				b = 3
			}
			w = a
			if lu[b] < lu[a] {
				w = b
			}
		}
		g.installFast(p, &st, clock, base+w, blk, write)
	}
	p.stats = st
	p.clock = clock
}

// replaySkewed2 is replaySkewed unrolled for 2 ways: the per-way
// indices live in registers instead of the scratch slice, and the
// two-table I-Poly apply is inlined branch-free.
func (g *Grid) replaySkewed2(p *gridPoint, blks []uint64, wr []bool) {
	blocks, state := g.blocks, g.state
	wb, wa := p.wb, p.wa
	var t0, t1 *[512]uint32
	if p.pl.ipoly.tab2 != nil {
		t0, t1 = &p.pl.ipoly.tab2[0], &p.pl.ipoly.tab2[1]
	}
	mask := p.pl.ipoly.mask
	st := p.stats
	clock := p.clock
	for i, blk := range blks {
		blk >>= p.shift
		write := wr[i]
		clock++
		st.Accesses++
		// Way 0 probe (lazy: way 1's index is only computed on demand,
		// matching the single-cache engine's scan order).
		var s0 uint64
		if t0 != nil {
			a := blk & mask
			s0 = uint64(t0[a&0xff] ^ t0[256|int(a>>8)])
		} else {
			s0 = p.pl.SetIndex(blk, 0)
		}
		li0 := p.base + int(s0)*2
		var li int
		if blocks[li0] == blk {
			li = li0
		} else {
			var s1 uint64
			if t1 != nil {
				a := blk & mask
				s1 = uint64(t1[a&0xff] ^ t1[256|int(a>>8)])
			} else {
				s1 = p.pl.SetIndex(blk, 1)
			}
			li1 := p.base + int(s1)*2 + 1
			if blocks[li1] == blk {
				li = li1
			} else {
				st.Misses++
				if write {
					st.WriteMiss++
					if !wa {
						continue
					}
				} else {
					st.ReadMisses++
				}
				w := li0
				switch {
				case blocks[li0] == gridNoTag:
				case blocks[li1] == gridNoTag:
					w = li1
				default:
					switch p.cfg.Replacement {
					case FIFO:
						if g.inserted[li1] < g.inserted[li0] {
							w = li1
						}
					case Random:
						if p.rnd.Intn(2) == 1 {
							w = li1
						}
					default: // LRU; ties keep way 0
						if g.lastUse[li1] < g.lastUse[li0] {
							w = li1
						}
					}
				}
				g.installFast(p, &st, clock, w, blk, write)
				continue
			}
		}
		st.Hits++
		if write {
			st.WriteHits++
			if wb {
				state[li] |= lineDirty
			}
		} else {
			st.ReadHits++
		}
		if p.needLast {
			g.lastUse[li] = clock
		}
	}
	p.stats = st
	p.clock = clock
}

// replaySkewed4LRU is the unrolled 4-way skewed I-Poly LRU path: lazy
// per-way probes with the two-table apply inlined and the all-valid
// victim picked by the same left-biased tournament as the 4-way uniform
// path.
func (g *Grid) replaySkewed4LRU(p *gridPoint, blks []uint64, wr []bool) {
	blocks, state := g.blocks, g.state
	wb, wa := p.wb, p.wa
	t0, t1, t2, t3 := &p.pl.ipoly.tab2[0], &p.pl.ipoly.tab2[1], &p.pl.ipoly.tab2[2], &p.pl.ipoly.tab2[3]
	mask := p.pl.ipoly.mask
	st := p.stats
	clock := p.clock
	for i, blk := range blks {
		blk >>= p.shift
		write := wr[i]
		clock++
		st.Accesses++
		a := blk & mask
		lo, hi := a&0xff, 256|int(a>>8)
		li := -1
		li0 := p.base + int(t0[lo]^t0[hi])*4
		if blocks[li0] == blk {
			li = li0
		} else {
			li1 := p.base + int(t1[lo]^t1[hi])*4 + 1
			if blocks[li1] == blk {
				li = li1
			} else {
				li2 := p.base + int(t2[lo]^t2[hi])*4 + 2
				if blocks[li2] == blk {
					li = li2
				} else {
					li3 := p.base + int(t3[lo]^t3[hi])*4 + 3
					if blocks[li3] == blk {
						li = li3
					} else {
						st.Misses++
						if write {
							st.WriteMiss++
							if !wa {
								continue
							}
						} else {
							st.ReadMisses++
						}
						var w int
						switch gridNoTag {
						case blocks[li0]:
							w = li0
						case blocks[li1]:
							w = li1
						case blocks[li2]:
							w = li2
						case blocks[li3]:
							w = li3
						default:
							lu := g.lastUse
							x, y := li0, li2
							if lu[li1] < lu[li0] {
								x = li1
							}
							if lu[li3] < lu[li2] {
								y = li3
							}
							w = x
							if lu[y] < lu[x] {
								w = y
							}
						}
						g.installFast(p, &st, clock, w, blk, write)
						continue
					}
				}
			}
		}
		st.Hits++
		if write {
			st.WriteHits++
			if wb {
				state[li] |= lineDirty
			}
		} else {
			st.ReadHits++
		}
		g.lastUse[li] = clock
	}
	p.stats = st
	p.clock = clock
}

// replaySkewed drives one skewed point through the pre-split chunk,
// mirroring Cache.accessSkewed: each per-way index is computed at most
// once — lazily during the hit scan (with the I-Poly byte tables
// applied inline), recorded into the point's scratch so a miss's victim
// choice and fill reuse them.
func (g *Grid) replaySkewed(p *gridPoint, blks []uint64, wr []bool) {
	blocks, state := g.blocks, g.state
	ways := p.ways
	wb, wa := p.wb, p.wa
	tab2 := p.pl.ipoly.tab2
	idx := p.scratch
	st := p.stats
	clock := p.clock
	for i, blk := range blks {
		blk >>= p.shift
		write := wr[i]
		clock++
		st.Accesses++
		hit := -1
		hitLi := 0
		for w := 0; w < ways; w++ {
			var s uint64
			if tab2 != nil {
				a := blk & p.pl.ipoly.mask
				t := &tab2[w]
				s = uint64(t[a&0xff] ^ t[256|int(a>>8)])
			} else {
				s = p.pl.SetIndex(blk, w)
			}
			idx[w] = s
			li := p.base + int(s)*ways + w
			if blocks[li] == blk {
				hit, hitLi = w, li
				break
			}
		}
		if hit >= 0 {
			st.Hits++
			if write {
				st.WriteHits++
				if wb {
					state[hitLi] |= lineDirty
				}
			} else {
				st.ReadHits++
			}
			if p.needLast {
				g.lastUse[hitLi] = clock
			}
			continue
		}
		st.Misses++
		if write {
			st.WriteMiss++
			if !wa {
				continue
			}
		} else {
			st.ReadMisses++
		}
		w := -1
		for v := 0; v < ways; v++ {
			if blocks[p.base+int(idx[v])*ways+v] == gridNoTag {
				w = v
				break
			}
		}
		if w < 0 {
			w = p.victimSkewed(g, idx)
		}
		g.installFast(p, &st, clock, p.base+int(idx[w])*ways+w, blk, write)
	}
	p.stats = st
	p.clock = clock
}

// replaySkewedState is replaySkewed with explicit valid-bit probes, for
// points that cannot use the sentinel scan.
func (g *Grid) replaySkewedState(p *gridPoint, blks []uint64, wr []bool) {
	blocks, state := g.blocks, g.state
	ways := p.ways
	wb, wa := p.wb, p.wa
	idx := p.scratch
	st := p.stats
	clock := p.clock
	for i, blk := range blks {
		blk >>= p.shift
		write := wr[i]
		clock++
		st.Accesses++
		hit := -1
		hitLi := 0
		for w := 0; w < ways; w++ {
			s := p.pl.SetIndex(blk, w)
			idx[w] = s
			li := p.base + int(s)*ways + w
			if state[li]&lineValid != 0 && blocks[li] == blk {
				hit, hitLi = w, li
				break
			}
		}
		if hit >= 0 {
			st.Hits++
			if write {
				st.WriteHits++
				if wb {
					state[hitLi] |= lineDirty
				}
			} else {
				st.ReadHits++
			}
			if p.needLast {
				g.lastUse[hitLi] = clock
			}
			continue
		}
		st.Misses++
		if write {
			st.WriteMiss++
			if !wa {
				continue
			}
		} else {
			st.ReadMisses++
		}
		w := -1
		for v := 0; v < ways; v++ {
			if state[p.base+int(idx[v])*ways+v]&lineValid == 0 {
				w = v
				break
			}
		}
		if w < 0 {
			w = p.victimSkewed(g, idx)
		}
		g.installState(p, &st, clock, p.base+int(idx[w])*ways+w, blk, write && wb)
	}
	p.stats = st
	p.clock = clock
}

// victimSkewed picks the all-valid-case victim way for a skewed point
// given the per-way indices of the current access.
func (p *gridPoint) victimSkewed(g *Grid, idx []uint64) int {
	ways := p.ways
	switch p.cfg.Replacement {
	case FIFO:
		if !p.needIns {
			return 0
		}
		best, bestAge := 0, ^uint64(0)
		for v := 0; v < ways; v++ {
			if t := g.inserted[p.base+int(idx[v])*ways+v]; t < bestAge {
				best, bestAge = v, t
			}
		}
		return best
	case Random:
		return p.rnd.Intn(ways)
	default: // LRU (PLRU is rejected for skewed placements at NewGrid)
		if !p.needLast {
			return 0
		}
		best, bestAge := 0, ^uint64(0)
		for v := 0; v < ways; v++ {
			if t := g.lastUse[p.base+int(idx[v])*ways+v]; t < bestAge {
				best, bestAge = v, t
			}
		}
		return best
	}
}

// installFast evicts line li's occupant (valid iff its tag differs from
// the sentinel) and installs blk, updating eviction statistics and
// recency stamps.  Write-through points skip state maintenance
// entirely; write-back points keep the dirty bit there.
func (g *Grid) installFast(p *gridPoint, st *Stats, clock uint64, li int, blk uint64, write bool) {
	if g.blocks[li] != gridNoTag {
		st.Evictions++
		if p.wb && g.state[li]&lineDirty != 0 {
			st.Writebacks++
		}
	}
	g.blocks[li] = blk
	if p.wb {
		s8 := lineValid
		if write {
			s8 |= lineDirty
		}
		g.state[li] = s8
	}
	if p.needLast {
		g.lastUse[li] = clock
	}
	if p.needIns {
		g.inserted[li] = clock
	}
	st.Fills++
}

// installState is installFast for state-checked points.
func (g *Grid) installState(p *gridPoint, st *Stats, clock uint64, li int, blk uint64, dirty bool) {
	if g.state[li]&lineValid != 0 {
		st.Evictions++
		if g.state[li]&lineDirty != 0 {
			st.Writebacks++
		}
	}
	g.blocks[li] = blk
	s8 := lineValid
	if dirty {
		s8 |= lineDirty
	}
	g.state[li] = s8
	if p.needLast {
		g.lastUse[li] = clock
	}
	if p.needIns {
		g.inserted[li] = clock
	}
	st.Fills++
}
