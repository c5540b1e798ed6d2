// Package tracestore is a process-wide memoized store of synthetic
// memory traces.  Every experiment driver that replays a benchmark's
// load/store stream through a cache asks the store for the first max
// memory records of (profile, seed); the store generates that trace
// exactly once, packs it into a compact struct-of-arrays form (one
// uint64 address plus one op bit per record — 8.125 bytes instead of the
// 24-byte trace.Rec), and replays it read-only to every subsequent
// caller.  A `repro all` run therefore pays one generation pass per
// (profile, seed) instead of one per driver per design point.
//
// Replayed records carry only the fields a memory-trace consumer reads —
// Op (OpLoad/OpStore) and Addr; PC and register fields are zero.  Cache,
// hierarchy and classifier consumers are oblivious to the difference, so
// results are bit-identical with direct generation.
//
// Memory is bounded: traces whose packed form would push the store past
// its byte budget are not materialized.  Such requests fall back to
// streaming straight from the generator in bounded chunks, so
// -instructions can scale to billions of records without the store
// growing past its budget.
//
// An optional persistent tier (SetPersistent) backs the in-process
// store with the on-disk content-addressed artifact store: packed
// traces are keyed by a content hash of the profile's generator
// parameters, the seed, the requested length and the packed-format
// version, so they survive across `repro all` runs and are invalidated
// automatically whenever any key ingredient changes.
//
// External profiles (workload.Profile.External != nil) are served the
// same way, except records come from decoding the trace file instead of
// from synthesis.  Because the profile's JSON encoding carries the
// file's content hash rather than its path, the store's keys — and the
// persistent tier's — identify the trace bytes: moving or renaming the
// file hits the same entry, editing it misses.  External traces are
// finite; a file shorter than the requested max yields a short entry
// that is remembered as complete, not re-decoded on every touch.
package tracestore

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ChunkLen is the replay/streaming chunk granularity (records) — the
// buffer capacity ReplayMem uses, and the natural slot size for callers
// of ReplayMemChunks that ring-buffer their own chunks.
const ChunkLen = 1 << 13

// packedBytesPerRec is the struct-of-arrays cost of one record: 8 bytes
// of address plus one op bit.
const packedBytesPerRec = 8.125

// DefaultMaxBytes is the default store budget.  At the default
// experiment scale (200k memory records × 18 profiles ≈ 30 MB packed)
// the whole suite fits; billion-record runs exceed it and stream.
const DefaultMaxBytes = 1 << 30

// Key identifies one materialized trace.  Profiles are keyed by a
// content hash of their generator parameters (ProfileKey), never by
// name: two differing profiles that happen to share a name occupy
// separate entries instead of silently aliasing.
type Key struct {
	// ProfileHash is ProfileKey of the profile's parameters.
	ProfileHash string
	// Seed is the workload generation seed.
	Seed uint64
}

// ProfileKey returns the content hash identifying a profile's
// generator parameters: the hex SHA-256 of the profile's canonical
// JSON encoding.  Any parameter change — arrays, mixes, biases, even
// the name — yields a different key.
func ProfileKey(prof workload.Profile) string {
	b, err := json.Marshal(prof)
	if err != nil {
		// Profile is a plain-data struct; its encoding cannot fail.
		panic(fmt.Sprintf("tracestore: profile %q not encodable: %v", prof.Name, err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Stats counts store traffic: Generations is the number of generation
// passes performed (the number `repro all` wants at exactly one per
// (profile, seed)), Hits the replays served from memory, Misses the
// requests that had to materialize (first touch or growth), Streamed
// the over-budget requests that bypassed the store, and DiskHits /
// DiskPuts the persistent-tier traffic (a disk hit is a Miss that
// loaded the packed trace instead of generating it).
type Stats struct {
	Hits, Misses, Generations, Streamed uint64
	DiskHits, DiskPuts                  uint64
}

// Store memoizes packed memory traces under a byte budget.
type Store struct {
	mu       sync.Mutex
	maxBytes int64
	used     int64
	entries  map[Key]*entry
	disk     *store.Store
	stats    Stats
}

// entry is one (profile, seed) packed trace.  mu serialises
// materialization; after generation the arrays are immutable and read
// concurrently without locking.
type entry struct {
	mu      sync.Mutex
	prof    workload.Profile
	hash    string // ProfileKey(prof)
	seed    uint64
	n       uint64   // records materialized
	done    bool     // source exhausted before max: n is the whole trace
	charged int64    // bytes charged against the store budget
	addrs   []uint64 // record i's address
	stores  []uint64 // bitmask: bit i set => record i is a store
}

// New returns a store with the given byte budget.
func New(maxBytes int64) *Store {
	return &Store{maxBytes: maxBytes, entries: make(map[Key]*entry)}
}

// Default is the process-wide store shared by the experiment drivers.
var Default = New(DefaultMaxBytes)

// FormatVersion identifies the packed on-disk trace encoding and the
// workload-generator semantics it snapshots.  Bump it whenever the
// packed layout or the generator's output for a fixed (profile, seed)
// changes: every persisted trace keyed under the old version then
// degrades to a clean regeneration.
const FormatVersion = "repro/trace/v1"

// traceKind is the artifact-store namespace packed traces live under.
const traceKind = "trace"

// SetPersistent attaches (nil detaches) an on-disk artifact store as
// the store's persistent tier: materializations first try to load the
// packed trace from disk, and fresh generations are written back, so
// traces survive across runs.  Correctness never depends on the tier —
// a missing, corrupt or stale artifact just regenerates.
func (s *Store) SetPersistent(d *store.Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disk = d
}

// persistent returns the attached persistent tier, or nil.
func (s *Store) persistent() *store.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.disk
}

// diskKey derives the content address of one persisted packed trace
// from everything that determines its bytes: the packed-format
// version, the profile's parameter hash, the seed and the requested
// record count.
func diskKey(profileHash string, seed, max uint64) string {
	h := sha256.New()
	h.Write([]byte(FormatVersion + "\x00" + profileHash + "\x00" +
		strconv.FormatUint(seed, 10) + "\x00" + strconv.FormatUint(max, 10)))
	return hex.EncodeToString(h.Sum(nil))
}

// Stats returns a snapshot of the store's traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// UsedBytes returns the packed bytes currently materialized.
func (s *Store) UsedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// packedBytes is the budget cost of max packed records.
func packedBytes(max uint64) int64 {
	return int64(float64(max) * packedBytesPerRec)
}

// ReplayMem feeds the first max memory records of (prof, seed) to fn in
// bounded in-order chunks, checking ctx between chunks.  The chunk
// buffer is reused across calls to fn; fn must not retain it.  The
// trace is served from the memoized store when it fits the byte budget
// and streamed straight from the generator otherwise.
func (s *Store) ReplayMem(ctx context.Context, prof workload.Profile, seed, max uint64, fn func(recs []trace.Rec)) error {
	return s.ReplayMemRange(ctx, prof, seed, max, 0, max, fn)
}

// ReplayMemChunks is ReplayMem with caller-owned chunk buffers: before
// each chunk the store calls next for an empty buffer, decodes up to
// cap(next()) records straight into it — one decode, no intermediate
// copy — and hands the filled prefix to emit.  A caller that rotates
// next through a bounded ring (trace.Broadcast) gets a zero-copy
// producer for fan-out pipelines; record contents and order are
// identical to ReplayMem on both the memoized and the streaming path.
// Buffers must have non-zero capacity.
func (s *Store) ReplayMemChunks(ctx context.Context, prof workload.Profile, seed, max uint64, next func() []trace.Rec, emit func(recs []trace.Rec)) error {
	return s.replayRangeChunks(ctx, prof, seed, max, 0, max, next, emit)
}

// ReplayMemRange feeds records [lo, hi) of the first max memory records
// of (prof, seed) to fn in bounded in-order chunks — ReplayMem
// restricted to an index window.  Time-sharded replay is built on it:
// shard k replays its own window after warming up on a slice of its
// predecessor's.  hi is clamped to the trace length; an empty window is
// a no-op.
func (s *Store) ReplayMemRange(ctx context.Context, prof workload.Profile, seed, max, lo, hi uint64, fn func(recs []trace.Rec)) error {
	buf := make([]trace.Rec, 0, ChunkLen)
	return s.replayRangeChunks(ctx, prof, seed, max, lo, hi,
		func() []trace.Rec { return buf[:0] },
		func(recs []trace.Rec) {
			if len(recs) > 0 {
				fn(recs)
			}
		})
}

// MemLen reports how many memory records the first max records of
// (prof, seed) actually contain: max for the infinite synthetic
// generators, possibly fewer for a finite external trace file.  As a
// side effect the trace is materialized (budget permitting), so the
// replays that typically follow are store hits.
func (s *Store) MemLen(ctx context.Context, prof workload.Profile, seed, max uint64) (uint64, error) {
	var n uint64
	err := s.ReplayMem(ctx, prof, seed, max, func(recs []trace.Rec) { n += uint64(len(recs)) })
	return n, err
}

// replayRangeChunks is the shared admission/materialization path:
// deliver records [lo, hi) of the first max memory records, memoizing
// the whole max-record prefix when the budget allows and streaming the
// window otherwise.  hi is clamped to max.
func (s *Store) replayRangeChunks(ctx context.Context, prof workload.Profile, seed, max, lo, hi uint64, next func() []trace.Rec, emit func(recs []trace.Rec)) error {
	hi = min(hi, max)
	if lo >= hi {
		return ctx.Err()
	}
	key := Key{ProfileHash: ProfileKey(prof), Seed: seed}

	// Admission reserves the projected bytes up front, so concurrent
	// first-touch requests for different keys each see the others'
	// reservations — the store can never over-materialize past its
	// budget by admitting everyone against a stale usage figure.
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		need := packedBytes(max)
		if s.used+need > s.maxBytes {
			s.stats.Streamed++
			s.mu.Unlock()
			return streamMemRange(ctx, prof, seed, lo, hi, next, emit)
		}
		e = &entry{prof: prof, hash: key.ProfileHash, seed: seed, charged: need}
		s.used += need
		s.entries[key] = e
	}
	s.mu.Unlock()

	// Materialize (or grow) under the entry lock; concurrent requesters
	// for the same trace block here and then replay the shared arrays.
	e.mu.Lock()
	if e.n < max && !e.done {
		need := packedBytes(max)
		s.mu.Lock()
		if need > e.charged {
			// Growth past the existing reservation: reserve the delta or
			// stream (the entry stays at its old size).
			if s.used+need-e.charged > s.maxBytes {
				s.stats.Streamed++
				s.mu.Unlock()
				e.mu.Unlock()
				return streamMemRange(ctx, prof, seed, lo, hi, next, emit)
			}
			s.used += need - e.charged
			e.charged = need
		}
		s.stats.Misses++
		s.mu.Unlock()
		// Materialize: the persistent tier first (a verified packed
		// artifact loads in one read), generation otherwise — with the
		// fresh result written back so the next run skips the pass.
		var err error
		d := s.persistent()
		if d != nil && e.loadDisk(d, max) {
			s.mu.Lock()
			s.stats.DiskHits++
			s.mu.Unlock()
		} else {
			s.mu.Lock()
			s.stats.Generations++
			s.mu.Unlock()
			err = e.generate(ctx, max)
			if err == nil && d != nil && e.saveDisk(d, max) {
				s.mu.Lock()
				s.stats.DiskPuts++
				s.mu.Unlock()
			}
		}
		// Settle the reservation to what actually materialized (a
		// cancelled generation refunds; the partial entry is regenerated
		// on next touch).
		s.mu.Lock()
		s.used += packedBytes(e.n) - e.charged
		e.charged = packedBytes(e.n)
		s.mu.Unlock()
		if err != nil {
			e.mu.Unlock()
			return err
		}
	} else {
		s.mu.Lock()
		s.stats.Hits++
		s.mu.Unlock()
	}
	// Snapshot the packed arrays before releasing the entry: a later
	// growth request swaps in fresh slices rather than mutating these, so
	// the snapshot stays immutable while we replay it.
	addrs, stores, n := e.addrs, e.stores, e.n
	e.mu.Unlock()

	return replayPackedChunks(ctx, addrs, stores, n, lo, hi, next, emit)
}

// memSource opens the memory-record source for (prof, seed): the
// synthetic generator for ordinary profiles, the sniffed trace-file
// reader for external ones.  finish reports a decode or I/O error
// pending after the source has been drained (a sniffed reader signals
// corruption as early EOF plus a deferred error); closeSrc releases
// any underlying file handle.
func memSource(prof workload.Profile, seed uint64) (src trace.Source, finish, closeSrc func() error, err error) {
	if prof.External == nil {
		nop := func() error { return nil }
		return &trace.MemOnly{S: workload.NewGenerator(prof, seed)}, nop, nop, nil
	}
	f, err := trace.OpenFile(prof.External.Path)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("tracestore: %w", err)
	}
	return &trace.MemOnly{S: f}, f.Err, f.Close, nil
}

// generate regenerates the packed trace from scratch up to max records.
// A growth request regenerates rather than resuming: source state is
// not checkpointed, and within one `repro all` run every driver asks for
// the same size, so growth never happens there.
func (e *entry) generate(ctx context.Context, max uint64) error {
	src, finish, closeSrc, err := memSource(e.prof, e.seed)
	if err != nil {
		return err
	}
	defer closeSrc()
	e.addrs = make([]uint64, 0, max)
	e.stores = make([]uint64, (max+63)/64)
	e.n = 0
	e.done = false
	buf := make([]trace.Rec, ChunkLen)
	for e.n < max {
		if err := ctx.Err(); err != nil {
			return err
		}
		want := uint64(ChunkLen)
		if max-e.n < want {
			want = max - e.n
		}
		k, eof := src.ReadChunk(buf[:want])
		for i := 0; i < k; i++ {
			idx := e.n + uint64(i)
			if buf[i].Op == trace.OpStore {
				e.stores[idx>>6] |= 1 << (idx & 63)
			}
			e.addrs = append(e.addrs, buf[i].Addr)
		}
		e.n += uint64(k)
		if eof {
			if err := finish(); err != nil {
				return err
			}
			e.done = true
			break
		}
	}
	return nil
}

// loadDisk tries to materialize the entry from the persistent tier's
// packed artifact for (profile, seed, max), reporting success.  The
// artifact store has already verified the blob's hash; decodePacked
// re-checks the framing, so a stale or damaged artifact degrades to
// regeneration.
func (e *entry) loadDisk(d *store.Store, max uint64) bool {
	blob, ok := d.Get(traceKind, diskKey(e.hash, e.seed, max), FormatVersion)
	if !ok {
		return false
	}
	addrs, stores, n, ok := decodePacked(blob, max)
	if !ok {
		return false
	}
	e.addrs, e.stores, e.n = addrs, stores, n
	// A persisted blob shorter than its own max means the source ran dry
	// at generation time: the entry is complete, not partial.
	e.done = n < max
	return true
}

// saveDisk writes the entry's packed arrays to the persistent tier
// (best effort — a full disk or unwritable directory costs nothing but
// the next run's regeneration), reporting whether the write landed.
func (e *entry) saveDisk(d *store.Store, max uint64) bool {
	err := d.Put(traceKind, diskKey(e.hash, e.seed, max), FormatVersion,
		map[string]string{
			"profile": e.prof.Name,
			"seed":    strconv.FormatUint(e.seed, 10),
			"records": strconv.FormatUint(e.n, 10),
		}, encodePacked(e.addrs, e.stores, e.n))
	return err == nil
}

// encodePacked frames the packed struct-of-arrays form for disk:
// a little-endian record count, the address array, then the store
// bitmask words.
func encodePacked(addrs, stores []uint64, n uint64) []byte {
	words := (n + 63) / 64
	blob := make([]byte, 8+8*n+8*words)
	binary.LittleEndian.PutUint64(blob, n)
	off := 8
	for _, a := range addrs[:n] {
		binary.LittleEndian.PutUint64(blob[off:], a)
		off += 8
	}
	for _, w := range stores[:words] {
		binary.LittleEndian.PutUint64(blob[off:], w)
		off += 8
	}
	return blob
}

// decodePacked reverses encodePacked, rejecting any framing that does
// not describe exactly len(blob) bytes or more records than requested.
func decodePacked(blob []byte, max uint64) (addrs, stores []uint64, n uint64, ok bool) {
	if len(blob) < 8 {
		return nil, nil, 0, false
	}
	n = binary.LittleEndian.Uint64(blob)
	words := (n + 63) / 64
	if n > max || n > uint64(len(blob))/8 || uint64(len(blob)) != 8+8*n+8*words {
		return nil, nil, 0, false
	}
	addrs = make([]uint64, n)
	off := 8
	for i := range addrs {
		addrs[i] = binary.LittleEndian.Uint64(blob[off:])
		off += 8
	}
	stores = make([]uint64, words)
	for i := range stores {
		stores[i] = binary.LittleEndian.Uint64(blob[off:])
		off += 8
	}
	return addrs, stores, n, true
}

// replayPackedChunks decodes packed records [lo, hi) (hi clamped to
// the n materialized) back into trace.Rec chunks, each decoded
// directly into a buffer obtained from next and delivered to emit.
// The arrays are an immutable snapshot, so concurrent replays of one
// entry are safe.
func replayPackedChunks(ctx context.Context, addrs, stores []uint64, n, lo, hi uint64, next func() []trace.Rec, emit func(recs []trace.Rec)) error {
	limit := n
	if hi < limit {
		limit = hi
	}
	for i := lo; i < limit; {
		if err := ctx.Err(); err != nil {
			return err
		}
		buf := chunkBuf(next)
		k := uint64(cap(buf))
		if limit-i < k {
			k = limit - i
		}
		buf = buf[:k]
		for j := uint64(0); j < k; j++ {
			idx := i + j
			op := trace.OpLoad
			if stores[idx>>6]&(1<<(idx&63)) != 0 {
				op = trace.OpStore
			}
			buf[j] = trace.Rec{Op: op, Addr: addrs[idx]}
		}
		emit(buf)
		i += k
	}
	return nil
}

// streamMemRange is the bounded-memory fallback: decode the source and
// deliver records [lo, hi) chunk by chunk without materializing
// anything, each chunk written into a buffer obtained from next.
// Records are reduced to the same Op+Addr shape the packed replay
// delivers, so a consumer sees identical record contents whichever
// path the budget picks.
func streamMemRange(ctx context.Context, prof workload.Profile, seed, lo, hi uint64, next func() []trace.Rec, emit func(recs []trace.Rec)) error {
	src, finish, closeSrc, err := memSource(prof, seed)
	if err != nil {
		return err
	}
	defer closeSrc()
	var pos uint64 // records consumed from the source so far
	if lo > 0 {
		skip := make([]trace.Rec, ChunkLen)
		for pos < lo {
			if err := ctx.Err(); err != nil {
				return err
			}
			want := uint64(ChunkLen)
			if lo-pos < want {
				want = lo - pos
			}
			k, eof := src.ReadChunk(skip[:want])
			pos += uint64(k)
			if eof {
				return finish()
			}
		}
	}
	for pos < hi {
		if err := ctx.Err(); err != nil {
			return err
		}
		buf := chunkBuf(next)
		want := uint64(cap(buf))
		if hi-pos < want {
			want = hi - pos
		}
		buf = buf[:want]
		k, eof := src.ReadChunk(buf)
		for i := 0; i < k; i++ {
			buf[i] = trace.Rec{Op: buf[i].Op, Addr: buf[i].Addr}
		}
		emit(buf[:k])
		pos += uint64(k)
		if eof {
			break
		}
	}
	return finish()
}

// chunkBuf fetches the caller's next chunk buffer and enforces the
// non-zero-capacity contract (a zero-capacity buffer would loop
// forever delivering nothing).
func chunkBuf(next func() []trace.Rec) []trace.Rec {
	buf := next()
	if cap(buf) == 0 {
		panic("tracestore: chunk buffer must have non-zero capacity")
	}
	return buf[:0]
}
