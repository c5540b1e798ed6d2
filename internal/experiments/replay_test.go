package experiments

import (
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/index"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// writeMemDinGz writes the first n memory records of (bench, seed) as a
// gzip-compressed din file — the external-tool interchange shape — and
// returns its path.
func writeMemDinGz(t *testing.T, bench string, seed, n uint64) string {
	t.Helper()
	prof, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	path := filepath.Join(t.TempDir(), bench+".din.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	dw := trace.NewDinWriter(zw)
	src := &trace.Limit{S: &trace.MemOnly{S: workload.Source(prof, seed)}, N: n}
	buf := make([]trace.Rec, 4096)
	for {
		k, eof := src.ReadChunk(buf)
		if err := dw.WriteChunk(buf[:k]); err != nil {
			t.Fatal(err)
		}
		if eof {
			break
		}
	}
	if err := dw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayExternalMatchesSynthetic is the ingestion golden pin: a
// tomcatv memory trace exported to gzipped din and replayed from the
// file must produce bit-identical cache statistics to the in-process
// synthetic replay of the same records.
func TestReplayExternalMatchesSynthetic(t *testing.T) {
	const n = 20_000
	base := exp.Base{Instructions: n, Seed: exp.DefaultSeed}
	path := writeMemDinGz(t, "tomcatv", base.Seed, n)

	synth, err := RunReplayCtx(context.Background(), ReplayConfig{Base: base, Bench: "tomcatv"})
	if err != nil {
		t.Fatal(err)
	}
	extBase := base
	extBase.TraceFile = path
	ext, err := RunReplayCtx(context.Background(), ReplayConfig{Base: extBase})
	if err != nil {
		t.Fatal(err)
	}
	if ext.Stats != synth.Stats {
		t.Errorf("external stats %+v != synthetic %+v", ext.Stats, synth.Stats)
	}
	if ext.Records != synth.Records {
		t.Errorf("external records %d != synthetic %d", ext.Records, synth.Records)
	}
	if ext.Format != "din+gzip" {
		t.Errorf("sniffed format %q, want din+gzip", ext.Format)
	}
	if ext.SHA256 == "" {
		t.Error("external result carries no content hash")
	}
}

// TestReplayTimeShardsByteIdentical pins the warmup-overlap stitching:
// with the default warm-up window (which covers every shard's full
// prefix at this scale) shard counts 1, 2 and 8 must agree exactly,
// counter for counter.
func TestReplayTimeShardsByteIdentical(t *testing.T) {
	const n = 30_000
	base := exp.Base{Instructions: n, Seed: exp.DefaultSeed}
	path := writeMemDinGz(t, "swim", base.Seed, n)
	base.TraceFile = path

	ref, err := RunReplayCtx(context.Background(), ReplayConfig{Base: base, TimeShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 8} {
		got, err := RunReplayCtx(context.Background(), ReplayConfig{Base: base, TimeShards: k})
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != ref.Stats {
			t.Errorf("timeshards=%d stats %+v != sequential %+v", k, got.Stats, ref.Stats)
		}
		if got.Shards != k {
			t.Errorf("timeshards=%d ran %d shards", k, got.Shards)
		}
	}
}

// TestReplayShortWarmupWithinBound runs a deliberately undersized
// warm-up window and checks the documented error model: every counter
// within ErrorBound of the sequential replay.
func TestReplayShortWarmupWithinBound(t *testing.T) {
	const n = 30_000
	base := exp.Base{Instructions: n, Seed: exp.DefaultSeed}

	ref, err := RunReplayCtx(context.Background(), ReplayConfig{Base: base, Bench: "tomcatv", TimeShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunReplayCtx(context.Background(), ReplayConfig{Base: base, Bench: "tomcatv", TimeShards: 8, Warmup: 512})
	if err != nil {
		t.Fatal(err)
	}
	diff := func(a, b uint64) uint64 {
		if a > b {
			return a - b
		}
		return b - a
	}
	if d := diff(got.Stats.Misses, ref.Stats.Misses); d > got.ErrorBound {
		t.Errorf("short-warmup miss delta %d exceeds bound %d", d, got.ErrorBound)
	}
	if got.Stats.Accesses != ref.Stats.Accesses {
		t.Errorf("access counts differ (%d vs %d): shard ranges must partition the trace", got.Stats.Accesses, ref.Stats.Accesses)
	}
}

// replaySchemes is every index scheme the replay experiment accepts.
var replaySchemes = []index.Scheme{index.SchemeModulo, index.SchemeXOR, index.SchemeXORSk, index.SchemeIPoly, index.SchemeIPolySk}

// statsDeltas returns |a−b| for every cache.Stats counter, by field
// name, so a counter added later is checked without editing the tests.
func statsDeltas(a, b cache.Stats) map[string]uint64 {
	out := map[string]uint64{}
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		x, y := va.Field(i).Uint(), vb.Field(i).Uint()
		if x < y {
			x, y = y, x
		}
		out[va.Type().Field(i).Name] = x - y
	}
	return out
}

// TestReplayShardsWithinBoundProperty is the time-shard error model as
// a property over random inputs: a random profile and seed, K in
// [1, 16], a random warm-up and every scheme.  Every counter stays
// within ErrorBound of the sequential replay, and accesses partition
// exactly.  Exact equality is asserted only where it provably holds:
// when every shard's warm-up window reaches back to the first record,
// so each shard enters its range in the sequential replay's state.
func TestReplayShardsWithinBoundProperty(t *testing.T) {
	const n = 40_000
	trials := 30
	if testing.Short() {
		trials = 5
	}
	r := rng.New(20261018)
	suite := workload.Suite()
	for trial := 0; trial < trials; trial++ {
		prof := suite[r.Intn(len(suite))]
		base := exp.Base{Instructions: n, Seed: r.Uint64()}
		k := 1 + r.Intn(16)
		warm := 1 + uint64(r.Intn(1<<(1+r.Intn(16))))
		fromStart := warm >= uint64(k-1)*n/uint64(k)
		for _, s := range replaySchemes {
			cfg := ReplayConfig{Base: base, Bench: prof.Name, Scheme: string(s), TimeShards: 1}
			ref, err := RunReplayCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.TimeShards, cfg.Warmup = k, warm
			got, err := RunReplayCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("%s seed %d scheme %s K=%d warm-up %d", prof.Name, base.Seed, s, k, warm)
			if want := uint64(k-1) * 256; got.ErrorBound != want {
				t.Fatalf("%s: ErrorBound %d, want %d", where, got.ErrorBound, want)
			}
			for name, d := range statsDeltas(got.Stats, ref.Stats) {
				if d > got.ErrorBound {
					t.Errorf("%s: %s differs by %d, beyond the bound %d", where, name, d, got.ErrorBound)
				}
			}
			if got.Stats.Accesses != ref.Stats.Accesses {
				t.Errorf("%s: accesses %d != %d: shard ranges must partition the trace", where, got.Stats.Accesses, ref.Stats.Accesses)
			}
			if fromStart && got.Stats != ref.Stats {
				t.Errorf("%s: warm-up covers every shard's prefix, yet %+v != sequential %+v", where, got.Stats, ref.Stats)
			}
		}
	}
}

// TestReplayDefaultWarmupExactness pins where the default warm-up is
// exact at the default scale: non-skewed placements match the
// sequential replay counter for counter at K = 2 on gcc, tomcatv and
// swim.  Skewed placements get the bound only (gcc under a2-Hx-Sk
// differs by a few misses), so for them the test checks the bound.
func TestReplayDefaultWarmupExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale replays")
	}
	base := exp.Base{Instructions: exp.DefaultBase().Instructions, Seed: exp.DefaultSeed}
	for _, bench := range []string{"gcc", "tomcatv", "swim"} {
		for _, s := range replaySchemes {
			cfg := ReplayConfig{Base: base, Bench: bench, Scheme: string(s), TimeShards: 1}
			ref, err := RunReplayCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.TimeShards = 2
			got, err := RunReplayCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := cfg.normalize().placement()
			if err != nil {
				t.Fatal(err)
			}
			if !p.Skewed() {
				if got.Stats != ref.Stats {
					t.Errorf("%s %s: K=2 %+v != sequential %+v", bench, s, got.Stats, ref.Stats)
				}
				continue
			}
			for name, d := range statsDeltas(got.Stats, ref.Stats) {
				if d > got.ErrorBound {
					t.Errorf("%s %s: %s differs by %d, beyond the bound %d", bench, s, name, d, got.ErrorBound)
				}
			}
		}
	}
}

// TestExternalTraceThroughRegisteredExperiments replays one gzipped din
// file through two registered experiments (threec and colassoc) and
// checks each matches its synthetic twin — the trace file is a drop-in
// replacement for the benchmark it was exported from.
func TestExternalTraceThroughRegisteredExperiments(t *testing.T) {
	const n = 10_000
	base := exp.Base{Instructions: n, Seed: exp.DefaultSeed}
	path := writeMemDinGz(t, "tomcatv", base.Seed, n)
	extBase := base
	extBase.TraceFile = path

	t.Run("threec", func(t *testing.T) {
		synth, err := RunThreeCCtx(context.Background(), ThreeCConfig{Base: base})
		if err != nil {
			t.Fatal(err)
		}
		ext, err := RunThreeCCtx(context.Background(), ThreeCConfig{Base: extBase})
		if err != nil {
			t.Fatal(err)
		}
		if len(ext.Conventional) != 1 || len(ext.IPoly) != 1 {
			t.Fatalf("external run has %d+%d rows, want 1+1", len(ext.Conventional), len(ext.IPoly))
		}
		var want *ThreeCRow
		for i := range synth.Conventional {
			if synth.Conventional[i].Name == "tomcatv" {
				want = &synth.Conventional[i]
			}
		}
		if want == nil {
			t.Fatal("no tomcatv row in synthetic run")
		}
		got := ext.Conventional[0]
		if got.Compulsory != want.Compulsory || got.Capacity != want.Capacity || got.Conflict != want.Conflict {
			t.Errorf("external tomcatv 3C row %+v != synthetic %+v", got, *want)
		}
	})

	t.Run("colassoc", func(t *testing.T) {
		ext, err := RunColAssocCtx(context.Background(), ColAssocConfig{Base: extBase})
		if err != nil {
			t.Fatal(err)
		}
		if len(ext.Bench) != 1 || ext.Bench[0] != filepath.Base(path) {
			t.Fatalf("external colassoc rows %v, want just %s", ext.Bench, filepath.Base(path))
		}
	})
}

// TestCPUExperimentsRejectTraceFile pins the guard: drivers needing
// full instruction records must fail with a clear error, not garbage
// results.
func TestCPUExperimentsRejectTraceFile(t *testing.T) {
	base := exp.Base{Instructions: 4000, Seed: 7, TraceFile: "/nonexistent.din"}
	if _, err := RunTable2Ctx(context.Background(), Table2Config{Base: base}); err == nil {
		t.Error("table2 accepted a tracefile")
	}
	if _, err := RunFig1Ctx(context.Background(), Fig1Config{Base: base, MaxStride: 8, Rounds: 2}); err == nil {
		t.Error("fig1 accepted a tracefile")
	}
}
