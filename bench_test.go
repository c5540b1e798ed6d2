// Package repro_test is the benchmark harness: one testing.B benchmark
// per table and figure of the paper (regenerating the result and
// reporting its headline numbers as custom metrics), plus component
// micro-benchmarks and the DESIGN.md ablation benches.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/cache/stackdist"
	"repro/internal/cli"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/experiments"
	"repro/internal/gf2"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// benchBase scales experiments so a -bench=. sweep finishes in minutes.
func benchBase() exp.Base {
	return exp.Base{Instructions: 50_000, Seed: 1997}
}

// benchFig1 is the Figure 1 sweep at benchmark scale.
func benchFig1() experiments.Fig1Config {
	return experiments.Fig1Config{Base: benchBase(), Rounds: 9, MaxStride: 1024}
}

// benchRun executes a typed driver and fails the benchmark on error.
func benchRun[C any, R any](b *testing.B, run func(context.Context, C) (R, error), cfg C) R {
	b.Helper()
	res, err := run(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// ---------------------------------------------------------------------------
// Experiment regeneration benches (one per paper artifact)
// ---------------------------------------------------------------------------

// BenchmarkRunnerParallel measures the parallel sweep engine against
// the retained serial Figure-1 driver: the acceptance bar is >= 2x
// wall-clock speedup at 4 workers on the stride sweep (results are
// bit-identical at every worker count; see the experiments package's
// determinism tests).
func BenchmarkRunnerParallel(b *testing.B) {
	cfg := benchFig1()
	cfg.MaxStride = 4096 // the full sweep, so there is real work to split
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			experiments.RunFig1Serial(cfg)
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cc := cfg
			cc.Workers = workers
			for i := 0; i < b.N; i++ {
				benchRun(b, experiments.RunFig1Ctx, cc)
			}
		})
	}
}

// BenchmarkFigure1 regenerates the Figure 1 stride sweep.
func BenchmarkFigure1(b *testing.B) {
	cfg := benchFig1()
	for i := 0; i < b.N; i++ {
		res := benchRun(b, experiments.RunFig1Ctx, cfg)
		b.ReportMetric(100*res.PathologicalFraction(index.SchemeModulo), "patho-a2-%")
		b.ReportMetric(100*res.PathologicalFraction(index.SchemeIPolySk), "patho-HpSk-%")
	}
}

// BenchmarkTable2 regenerates the full Table 2 grid (18 benchmarks x 6
// configurations) and reports the combined-average headline columns.
func BenchmarkTable2(b *testing.B) {
	cfg := experiments.Table2Config{Base: benchBase()}
	for i := 0; i < b.N; i++ {
		res := benchRun(b, experiments.RunTable2Ctx, cfg)
		b.ReportMetric(res.Combined.C8IPC, "IPC-conv8K")
		b.ReportMetric(res.Combined.IPolyIPC, "IPC-ipoly")
		b.ReportMetric(res.Combined.C8Miss, "miss%-conv8K")
		b.ReportMetric(res.Combined.IPolyMiss, "miss%-ipoly")
	}
}

// BenchmarkTable3 regenerates the Table 3 bad/good breakdown.
func BenchmarkTable3(b *testing.B) {
	cfg := experiments.Table3Config{Base: benchBase()}
	for i := 0; i < b.N; i++ {
		res := benchRun(b, experiments.RunTable3Ctx, cfg)
		b.ReportMetric(res.BadAvg.C8IPC, "IPC-bad-conv")
		b.ReportMetric(res.BadAvg.InCPPredIPC, "IPC-bad-ipoly+pred")
	}
}

// BenchmarkHoles regenerates the §3.3 hole-probability validation.
func BenchmarkHoles(b *testing.B) {
	cfg := experiments.HolesConfig{Base: benchBase()}
	for i := 0; i < b.N; i++ {
		res := benchRun(b, experiments.RunHolesCtx, cfg)
		last := res.Sweep[len(res.Sweep)-1]
		b.ReportMetric(last.ModelPH, "model-PH")
		b.ReportMetric(last.Measured, "measured-PH")
	}
}

// BenchmarkMissRatioOrgs regenerates the §2.1 organization comparison.
func BenchmarkMissRatioOrgs(b *testing.B) {
	cfg := experiments.OrgsConfig{Base: benchBase()}
	for i := 0; i < b.N; i++ {
		res := benchRun(b, experiments.RunOrgsCtx, cfg)
		for j, n := range res.Orgs {
			if n == "2-way I-Poly-Sk" || n == "fully-assoc" || n == "2-way" {
				b.ReportMetric(res.Avg[j], "miss%-"+strings.ReplaceAll(n, " ", "_"))
			}
		}
	}
}

// BenchmarkStdDev regenerates the §5 predictability study.
func BenchmarkStdDev(b *testing.B) {
	cfg := experiments.StdDevConfig{Base: benchBase()}
	for i := 0; i < b.N; i++ {
		res := benchRun(b, experiments.RunStdDevCtx, cfg)
		b.ReportMetric(res.ConvStdDev, "stddev-conv")
		b.ReportMetric(res.IPolyStdDev, "stddev-ipoly")
	}
}

// BenchmarkColAssoc regenerates the §3.1 option-4 probe study.
func BenchmarkColAssoc(b *testing.B) {
	cfg := experiments.ColAssocConfig{Base: benchBase()}
	for i := 0; i < b.N; i++ {
		res := benchRun(b, experiments.RunColAssocCtx, cfg)
		var sum float64
		for _, r := range res.FirstProbeRate {
			sum += r
		}
		b.ReportMetric(100*sum/float64(len(res.FirstProbeRate)), "first-probe-%")
	}
}

// BenchmarkOptions31 regenerates the §3.1 implementation-options study.
func BenchmarkOptions31(b *testing.B) {
	cfg := experiments.Options31Config{Base: benchBase()}
	for i := 0; i < b.N; i++ {
		res := benchRun(b, experiments.RunOptions31Ctx, cfg)
		b.ReportMetric(res.Option1IPC, "IPC-physindex")
		b.ReportMetric(res.Option3IPC, "IPC-virtualreal")
	}
}

// BenchmarkSweep regenerates the size x ways x scheme design-space grid.
func BenchmarkSweep(b *testing.B) {
	cfg := experiments.SweepConfig{Base: benchBase()}
	for i := 0; i < b.N; i++ {
		res := benchRun(b, experiments.RunSweepCtx, cfg)
		if v, ok := res.At(8, 2, index.SchemeIPolySk); ok {
			b.ReportMetric(v, "miss%-8K2w-ipoly")
		}
	}
}

// BenchmarkThreeC regenerates the 3C miss-classification study.
func BenchmarkThreeC(b *testing.B) {
	cfg := experiments.ThreeCConfig{Base: benchBase()}
	for i := 0; i < b.N; i++ {
		res := benchRun(b, experiments.RunThreeCCtx, cfg)
		var conv, ip float64
		for j := range res.Conventional {
			conv += res.Conventional[j].Conflict
			ip += res.IPoly[j].Conflict
		}
		n := float64(len(res.Conventional))
		b.ReportMetric(conv/n, "conflict%-conv")
		b.ReportMetric(ip/n, "conflict%-ipoly")
	}
}

// BenchmarkAblations regenerates the DESIGN.md design-choice ablations.
func BenchmarkAblations(b *testing.B) {
	base := benchBase()
	base.Instructions = 20_000
	cfg := experiments.AblateConfig{Base: base}
	for i := 0; i < b.N; i++ {
		res := benchRun(b, experiments.RunAblateCtx, cfg)
		b.ReportMetric(res.IrreducibleMiss, "miss%-irreducible")
		b.ReportMetric(res.ReducibleMiss, "miss%-reducible")
		b.ReportMetric(res.UnskewedMiss, "miss%-unskewed")
	}
}

// BenchmarkInterleave regenerates the §2.1 interleaved-memory lineage
// comparison.
func BenchmarkInterleave(b *testing.B) {
	cfg := experiments.InterleaveConfig{Base: benchBase(), MaxStride: 1024}
	for i := 0; i < b.N; i++ {
		res := benchRun(b, experiments.RunInterleaveCtx, cfg)
		for j, s := range res.Schemes {
			if s == "ipoly-16" || s == "modulo-16" {
				b.ReportMetric(res.MeanBW[j], "BW-"+s)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Component micro-benchmarks
// ---------------------------------------------------------------------------

// BenchmarkGF2Mod measures raw polynomial modulus throughput.
func BenchmarkGF2Mod(b *testing.B) {
	p := gf2.Irreducibles(7, 1)[0]
	var sink gf2.Poly
	for i := 0; i < b.N; i++ {
		sink ^= gf2.Poly(uint64(i) * 0x9E3779B9).Mod(p)
	}
	_ = sink
}

// BenchmarkBitMatrixApply measures the precomputed XOR-network path the
// cache actually uses per access.
func BenchmarkBitMatrixApply(b *testing.B) {
	m := gf2.NewModMatrix(gf2.Irreducibles(7, 1)[0], 19)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= m.Apply(uint64(i) * 0x9E3779B9)
	}
	_ = sink
}

// BenchmarkPlacement compares one index computation per scheme.
func BenchmarkPlacement(b *testing.B) {
	for _, scheme := range index.AllSchemes() {
		place := index.MustNew(scheme, 7, 2, 14)
		b.Run(string(scheme), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= place.SetIndex(uint64(i)*977, i&1)
			}
			_ = sink
		})
	}
}

// BenchmarkCacheAccess measures behavioural-cache throughput per scheme.
func BenchmarkCacheAccess(b *testing.B) {
	for _, scheme := range index.AllSchemes() {
		place := index.MustNew(scheme, 7, 2, 14)
		b.Run(string(scheme), func(b *testing.B) {
			c := cache.New(cache.Config{
				Size: 8 << 10, BlockSize: 32, Ways: 2,
				Placement: place, WriteAllocate: false,
			})
			for i := 0; i < b.N; i++ {
				c.Access(uint64(i)*64, false)
			}
		})
	}
}

// BenchmarkCacheAccessStream measures the batched trace-replay path on
// the Figure-1 sweep shape: one AccessStream call over a materialized
// record buffer per iteration batch.
func BenchmarkCacheAccessStream(b *testing.B) {
	recs := make([]trace.Rec, 4096)
	for i := range recs {
		recs[i] = trace.Rec{Op: trace.OpLoad, Addr: uint64(i) * 64}
	}
	for _, scheme := range index.AllSchemes() {
		place := index.MustNew(scheme, 7, 2, 14)
		b.Run(string(scheme), func(b *testing.B) {
			c := cache.New(cache.Config{
				Size: 8 << 10, BlockSize: 32, Ways: 2,
				Placement: place, WriteAllocate: false,
			})
			for i := 0; i < b.N; i += len(recs) {
				c.AccessStream(recs)
			}
		})
	}
}

// BenchmarkHierarchy measures the two-level virtual-real hierarchy's
// per-access cost on a thrashing random workload (the §3.3 hole-study
// shape: small L2 so inclusion invalidations fire constantly).
func BenchmarkHierarchy(b *testing.B) {
	h := hierarchy.New(hierarchy.Config{
		L1: cache.Config{
			Size: 8 << 10, BlockSize: 32, Ways: 2,
			Placement:     index.NewIPolyDefault(2, 7, 19),
			WriteAllocate: false,
		},
		L2: cache.Config{
			Size: 64 << 10, BlockSize: 32, Ways: 2,
			WriteBack: true, WriteAllocate: true,
		},
	})
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(r.Intn(1<<20)), false)
	}
}

// BenchmarkCPUSim measures out-of-order simulation speed in
// instructions/op (each op = one simulated instruction).
func BenchmarkCPUSim(b *testing.B) {
	prof, _ := workload.ByName("gcc")
	cfg := cpu.DefaultConfig(cpu.PaperCache(8<<10, nil))
	coreSim := cpu.New(cfg)
	s := workload.Source(prof, 42)
	b.ResetTimer()
	res := coreSim.Run(&trace.Limit{S: s, N: uint64(b.N)}, uint64(b.N))
	b.ReportMetric(res.IPC(), "simulated-IPC")
}

// ---------------------------------------------------------------------------
// Grid engine benchmarks (make bench-grid -> BENCH_grid.json)
// ---------------------------------------------------------------------------

// BenchmarkGridVsSequential measures the single-pass grid engine
// against the sequential shapes it replaces, on the sweep aggregate
// (the full 24-point design space over one benchmark's 200k-record
// memory trace, served from the memoized store):
//
//   - perconfig: one full trace pass per configuration — the shape of
//     per-config runner jobs, 24 store decodes per iteration;
//   - multicache: one trace pass whose chunks fan out to 24 independent
//     Cache engines — the pre-Grid driver shape;
//   - grid: one trace pass through cache.Grid — decode and pre-split
//     paid once, all 24 points advanced per chunk.
//
// The acceptance bar for the Grid engine is >= 3x over perconfig on
// this aggregate (results are bit-identical across all three shapes;
// see TestSweepGridMatchesPerConfig and the cache package's
// differential tests).
func BenchmarkGridVsSequential(b *testing.B) {
	prof := mustProf(b, "gcc")
	const nrecs = 200_000
	const seed = 1997
	store := tracestore.New(tracestore.DefaultMaxBytes)
	ctx := context.Background()
	// Materialize the packed trace outside the timed regions.
	if err := store.ReplayMem(ctx, prof, seed, nrecs, func([]trace.Rec) {}); err != nil {
		b.Fatal(err)
	}
	replay := func(b *testing.B, fn func(recs []trace.Rec)) {
		b.Helper()
		if err := store.ReplayMem(ctx, prof, seed, nrecs, fn); err != nil {
			b.Fatal(err)
		}
	}
	spec := experiments.SweepGridSpec()

	b.Run("perconfig", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, cfg := range spec {
				c := cache.New(cfg)
				replay(b, func(recs []trace.Rec) { c.AccessStream(recs) })
			}
		}
	})
	b.Run("multicache", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			caches := make([]*cache.Cache, len(spec))
			for k, cfg := range spec {
				caches[k] = cache.New(cfg)
			}
			replay(b, func(recs []trace.Rec) {
				for _, c := range caches {
					c.AccessStream(recs)
				}
			})
		}
	})
	b.Run("grid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := cache.NewGrid(spec)
			replay(b, func(recs []trace.Rec) { g.AccessStream(recs) })
		}
	})
}

// ---------------------------------------------------------------------------
// Stack-distance engine benchmarks (make bench-stackdist -> BENCH_stackdist.json)
// ---------------------------------------------------------------------------

// stackDistSpace is the size sweep BenchmarkStackDistVsGrid collapses:
// the conventional modulo family over the curves experiment's ladder —
// 6 set counts x 8 associativities = 48 explicit (size, ways) design
// points from 1 KB to 256 KB, or 6 stack-distance engines.
func stackDistSpace() (setCounts []int, maxWays int) {
	return []int{32, 64, 128, 256, 512, 1024}, 8
}

// stackDistGridSpec expands the stack-distance benchmark space into the
// explicit per-point grid spec the engine replaces.
func stackDistGridSpec() cache.GridSpec {
	setCounts, maxWays := stackDistSpace()
	var spec cache.GridSpec
	for _, sets := range setCounts {
		for w := 1; w <= maxWays; w++ {
			spec = append(spec, cache.Config{
				Size: sets * 32 * w, BlockSize: 32, Ways: w,
				WriteAllocate: false,
			})
		}
	}
	return spec
}

// BenchmarkStackDistVsGrid measures the stack-distance engine against
// the explicit-point shapes it replaces, on the miss-ratio-curve
// aggregate (48 conventional design points spanning 1 KB - 256 KB over
// one benchmark's 200k-record memory trace, served from the memoized
// store):
//
//   - grid-points: one trace pass through a cache.Grid holding all 48
//     explicit (size, ways) points — the best pre-stackdist shape;
//   - stackdist: one trace pass through a 6-engine stackdist.Family —
//     one truncated stack per set count, all 8 associativities read off
//     each, the whole size dimension collapsed;
//   - mattson: one trace pass through the unbounded fully-associative
//     curve engine (every capacity at once), for scale.
//
// The acceptance bar for the stack-distance engine is >= 3x over
// grid-points on this aggregate (results are bit-identical; see the
// stackdist differential suite and TestCurvesMatchSweepCells).
func BenchmarkStackDistVsGrid(b *testing.B) {
	prof := mustProf(b, "gcc")
	const nrecs = 200_000
	const seed = 1997
	store := tracestore.New(tracestore.DefaultMaxBytes)
	ctx := context.Background()
	// Materialize the packed trace outside the timed regions.
	if err := store.ReplayMem(ctx, prof, seed, nrecs, func([]trace.Rec) {}); err != nil {
		b.Fatal(err)
	}
	replay := func(b *testing.B, fn func(recs []trace.Rec)) {
		b.Helper()
		if err := store.ReplayMem(ctx, prof, seed, nrecs, fn); err != nil {
			b.Fatal(err)
		}
	}
	setCounts, maxWays := stackDistSpace()
	spec := stackDistGridSpec()

	b.Run("grid-points", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := cache.NewGrid(spec)
			replay(b, func(recs []trace.Rec) { g.AccessStream(recs) })
		}
	})
	b.Run("stackdist", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fam := stackdist.NewFamily(index.SchemeModulo, setCounts, 32, maxWays, 14, false, false)
			replay(b, func(recs []trace.Rec) { fam.AccessStream(recs) })
		}
	})
	b.Run("mattson", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := stackdist.NewMattson(32)
			replay(b, func(recs []trace.Rec) { m.AccessStream(recs) })
		}
	})
}

// BenchmarkCurvesExperiment regenerates the miss-ratio-curve experiment
// (3 schemes x 6 set counts x 8 ways + the Mattson envelope, one trace
// pass per benchmark) and reports a headline curve point.
func BenchmarkCurvesExperiment(b *testing.B) {
	cfg := experiments.CurvesConfig{Base: benchBase()}
	for i := 0; i < b.N; i++ {
		res := benchRun(b, experiments.RunCurvesCtx, cfg)
		if v, ok := res.At(index.SchemeIPoly, 2, 128); ok {
			b.ReportMetric(v, "miss%-8K2w-ipoly")
		}
	}
}

// ---------------------------------------------------------------------------
// Trace-pipeline benchmarks (make bench-trace -> BENCH_trace.json)
// ---------------------------------------------------------------------------

// BenchmarkGeneratorChunk measures chunked trace production: iterations
// emitted directly into the caller's buffer, no per-record interface
// dispatch or copy-out.  The acceptance bar is 0 allocs and >= 2x the
// BenchmarkWorkloadGen (Next) baseline; ns are per record.
func BenchmarkGeneratorChunk(b *testing.B) {
	for _, name := range []string{"tomcatv", "gcc"} {
		prof, _ := workload.ByName(name)
		b.Run(name, func(b *testing.B) {
			g := workload.NewGenerator(prof, 42)
			buf := make([]trace.Rec, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; {
				want := len(buf)
				if b.N-n < want {
					want = b.N - n
				}
				k, _ := g.ReadChunk(buf[:want])
				n += k
			}
		})
	}
}

// BenchmarkMemOnlyChunk measures the full producer-side pipeline the
// cache drivers consume: generation plus in-place memory filtering; ns
// are per surviving memory record.
func BenchmarkMemOnlyChunk(b *testing.B) {
	prof, _ := workload.ByName("tomcatv")
	src := &trace.MemOnly{S: workload.Source(prof, 42)}
	buf := make([]trace.Rec, 4096)
	b.ReportAllocs()
	for n := 0; n < b.N; {
		want := len(buf)
		if b.N-n < want {
			want = b.N - n
		}
		k, _ := src.ReadChunk(buf[:want])
		n += k
	}
}

// BenchmarkTraceStoreReplay measures a memoized replay from the packed
// store against regenerating the trace; ns are per memory record.
func BenchmarkTraceStoreReplay(b *testing.B) {
	prof, _ := workload.ByName("tomcatv")
	store := tracestore.New(tracestore.DefaultMaxBytes)
	const chunk = 200_000
	ctx := context.Background()
	// Materialize once outside the timed region.
	if err := store.ReplayMem(ctx, prof, 42, chunk, func([]trace.Rec) {}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n += chunk {
		if err := store.ReplayMem(ctx, prof, 42, chunk, func([]trace.Rec) {}); err != nil {
			b.Fatal(err)
		}
	}
	if st := store.Stats(); st.Generations != 1 {
		b.Fatalf("benchmark regenerated: %d generations", st.Generations)
	}
}

// BenchmarkTraceCodecChunk measures the binary codec's chunked
// encode+decode round trip; ns are per record.
func BenchmarkTraceCodecChunk(b *testing.B) {
	recs := make([]trace.Rec, 4096)
	g := workload.NewGenerator(mustProf(b, "gcc"), 1)
	g.ReadChunk(recs)
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if err := w.WriteChunk(recs); err != nil {
		b.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	out := make([]trace.Rec, 4096)
	b.ResetTimer()
	for n := 0; n < b.N; n += len(recs) {
		r := trace.NewReader(bytes.NewReader(raw))
		if k, _ := r.ReadChunk(out); k != len(recs) {
			b.Fatalf("decoded %d records", k)
		}
	}
}

func mustProf(b *testing.B, name string) workload.Profile {
	prof, ok := workload.ByName(name)
	if !ok {
		b.Fatalf("unknown profile %s", name)
	}
	return prof
}

// BenchmarkReproAll is the end-to-end wall clock of `repro all` at a
// reduced -instructions scale: every experiment driver, the parallel
// runner and the memoized trace store together, via the real CLI entry
// point (-no-cache: this measures fresh simulation, not the artifact
// store).  Run with -benchtime 1x for the per-PR BENCH_trace.json
// record.
func BenchmarkReproAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		code := cli.Run(context.Background(),
			[]string{"all", "-instructions", "20000", "-maxstride", "512", "-no-cache"},
			io.Discard, io.Discard)
		if code != 0 {
			b.Fatalf("repro all exited %d", code)
		}
	}
}

// ---------------------------------------------------------------------------
// Intra-trace parallelism benchmarks (make bench-parallel -> BENCH_parallel.json)
// ---------------------------------------------------------------------------

// BenchmarkGridParallel measures the intra-trace chunk-broadcast
// pipeline on the sweep aggregate (the 24-point design space over one
// benchmark's 200k-record memory trace, served from the memoized
// store): the sequential single-goroutine grid pass against the same
// spec split across 2/4/8 ShardedGrid shards, each shard a broadcast
// consumer fed zero-copy from the store's packed decode.  Results are
// bit-identical at every shard count (TestShardedGridMatchesSequential,
// FuzzShardedGrid); the wall-clock win scales with spare cores — on a
// single-core host the pipeline only adds its (small) handoff overhead.
func BenchmarkGridParallel(b *testing.B) {
	prof := mustProf(b, "gcc")
	const nrecs = 200_000
	const seed = 1997
	store := tracestore.New(tracestore.DefaultMaxBytes)
	ctx := context.Background()
	// Materialize the packed trace outside the timed regions.
	if err := store.ReplayMem(ctx, prof, seed, nrecs, func([]trace.Rec) {}); err != nil {
		b.Fatal(err)
	}
	spec := experiments.SweepGridSpec()

	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := cache.NewGrid(spec)
			err := store.ReplayMem(ctx, prof, seed, nrecs, func(recs []trace.Rec) { g.AccessStream(recs) })
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, shards := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := cache.NewShardedGrid(spec, shards)
				bc := trace.NewBroadcast(g.Shards(), 6, tracestore.ChunkLen)
				var wg sync.WaitGroup
				for k := 0; k < g.Shards(); k++ {
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						sub := g.Sub(k)
						bc.Receive(k, func(recs []trace.Rec) { sub.AccessStream(recs) })
					}(k)
				}
				err := store.ReplayMemChunks(ctx, prof, seed, nrecs, bc.Slot, bc.Publish)
				bc.CloseSend(err)
				wg.Wait()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCurvesParallel measures intra-trace sharding end to end on
// the heaviest driver: the full curves experiment (19 consumers — three
// schemes' stack-distance engines plus the Mattson envelope) pinned to
// one pool worker, so any speedup comes from sharding alone.
func BenchmarkCurvesParallel(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := experiments.CurvesConfig{Base: benchBase()}
			cfg.Workers = 1
			cfg.Shards = shards
			for i := 0; i < b.N; i++ {
				benchRun(b, experiments.RunCurvesCtx, cfg)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Simulation-service benchmarks (make bench-serve -> BENCH_serve.json)
// ---------------------------------------------------------------------------

// BenchmarkServeThroughput measures end-to-end `repro serve` request
// rate through the shared load harness (every request POSTs with
// ?wait=1, so a completed request is a delivered result envelope):
//
//   - cold: no result cache attached — every distinct config costs a
//     full simulation through the bounded job queue;
//   - warm: the cache holds all swept configs — every request is served
//     synchronously by the fast path, no job, no queue slot.
//
// The acceptance bar is warm >= 50x cold req/s.  Run with -benchtime 1x
// for the per-PR BENCH_serve.json record.
func BenchmarkServeThroughput(b *testing.B) {
	const seeds = 8
	const instructions = 20_000
	body := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"experiment": "stddev", "config": {"instructions": %d, "seed": %d}}`,
			instructions, i%seeds+1))
	}
	load := func(b *testing.B, base string, requests int) {
		b.Helper()
		res, err := serve.RunLoad(context.Background(), serve.LoadOptions{
			BaseURL: base, Clients: 4, Requests: requests, Body: body,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Errors > 0 {
			b.Fatalf("%d failed requests: %+v", res.Errors, res)
		}
		b.ReportMetric(res.ReqPerSec, "req/s")
	}

	b.Run("cold", func(b *testing.B) {
		s := serve.New(serve.Options{Workers: 4, MaxQueue: 256})
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			s.Shutdown(context.Background())
		}()
		for i := 0; i < b.N; i++ {
			load(b, ts.URL, 2*seeds)
		}
	})
	b.Run("warm", func(b *testing.B) {
		d, err := store.Open(b.TempDir(), store.DefaultMaxBytes)
		if err != nil {
			b.Fatal(err)
		}
		rc := exp.NewResultCache(d)
		// Populate the cache with every swept config outside the timed
		// region, through the same decode path the server uses.
		e, ok := exp.Get("stddev")
		if !ok {
			b.Fatal("stddev experiment not registered")
		}
		for i := 0; i < seeds; i++ {
			var req struct {
				Config json.RawMessage `json:"config"`
			}
			if err := json.Unmarshal(body(i), &req); err != nil {
				b.Fatal(err)
			}
			cfg, err := exp.DecodeConfig(e, req.Config)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := exp.RunWith(context.Background(), rc, e, cfg); err != nil {
				b.Fatal(err)
			}
		}
		s := serve.New(serve.Options{Cache: rc, Workers: 4, MaxQueue: 256})
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			s.Shutdown(context.Background())
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			load(b, ts.URL, 25*seeds)
		}
	})
}

// ---------------------------------------------------------------------------
// Artifact-store benchmarks (make bench-store -> BENCH_store.json)
// ---------------------------------------------------------------------------

// reproAllCached runs one full `repro all` against the artifact store
// at dir and fails the benchmark on a non-zero exit.
func reproAllCached(b *testing.B, dir string) {
	b.Helper()
	code := cli.Run(context.Background(),
		[]string{"all", "-instructions", "20000", "-maxstride", "512", "-cache-dir", dir},
		io.Discard, io.Discard)
	if code != 0 {
		b.Fatalf("repro all exited %d", code)
	}
}

// BenchmarkReproAllStore measures the incremental-`repro all` contract:
//
//   - cold: every iteration gets an empty store directory, so all
//     thirteen experiments simulate (and persist their artifacts);
//   - warm: the store is populated once outside the timed region, so
//     every report is served by content hash — the only simulation left
//     is the per-run integrity resample.
//
// The acceptance bar is warm >= 5x faster than cold.  Run with
// -benchtime 1x for the per-PR BENCH_store.json record.
func BenchmarkReproAllStore(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir, err := os.MkdirTemp("", "repro-bench-store-")
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			reproAllCached(b, dir)
			b.StopTimer()
			os.RemoveAll(dir)
			b.StartTimer()
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		reproAllCached(b, dir) // populate outside the timed region
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reproAllCached(b, dir)
		}
	})
}

// ---------------------------------------------------------------------------
// External-trace ingestion benchmarks (make bench-ingest -> BENCH_ingest.json)
// ---------------------------------------------------------------------------

// writeIngestTrace exports the first n memory records of a benchmark as
// a gzip-compressed din file — the external interchange shape the
// ingestion path is benchmarked on — and returns its path.
func writeIngestTrace(b *testing.B, bench string, seed, n uint64) string {
	b.Helper()
	prof := mustProf(b, bench)
	path := filepath.Join(b.TempDir(), bench+".din.gz")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	dw := trace.NewDinWriter(zw)
	src := &trace.Limit{S: &trace.MemOnly{S: workload.Source(prof, seed)}, N: n}
	buf := make([]trace.Rec, 4096)
	for {
		k, eof := src.ReadChunk(buf)
		if err := dw.WriteChunk(buf[:k]); err != nil {
			b.Fatal(err)
		}
		if eof {
			break
		}
	}
	if err := dw.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkIngest measures external-trace ingestion end to end on a
// 200k-record gzipped din file:
//
//   - decode: sniff + gunzip + din parse + pack into a cold trace
//     store, paid once per distinct trace (every replay after that is
//     served from the packed records);
//   - replay/timeshards=K: the replay experiment on the ingested trace
//     with the packed records already materialized — K=1 is the
//     sequential reference, K=2/8 the time-sharded runs whose counters
//     the differential tests pin byte-identical.
//
// The sharded wall-clock win needs spare cores: on a 1-core host the
// K>1 runs measure the sharding overhead floor (per-shard warm-up
// replay plus job dispatch), not a speedup.
func BenchmarkIngest(b *testing.B) {
	const nrecs = 200_000
	const seed = 1997
	path := writeIngestTrace(b, "gcc", seed, nrecs)
	prof, err := workload.ExternalProfile(path)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := tracestore.New(tracestore.DefaultMaxBytes)
			var n uint64
			if err := st.ReplayMem(ctx, prof, seed, nrecs, func(recs []trace.Rec) { n += uint64(len(recs)) }); err != nil {
				b.Fatal(err)
			}
			if n != nrecs {
				b.Fatalf("decoded %d records, want %d", n, nrecs)
			}
		}
	})

	cfg := experiments.ReplayConfig{Base: exp.Base{Instructions: nrecs, Seed: seed}}
	cfg.TraceFile = path
	// Materialize the packed trace in the experiments store outside the
	// timed regions, so the replay numbers measure shard scaling, not
	// file decode.
	if _, err := experiments.RunReplayCtx(ctx, cfg); err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("replay/timeshards=%d", shards), func(b *testing.B) {
			cc := cfg
			cc.TimeShards = shards
			for i := 0; i < b.N; i++ {
				res := benchRun(b, experiments.RunReplayCtx, cc)
				if res.Records != nrecs {
					b.Fatalf("replayed %d records, want %d", res.Records, nrecs)
				}
			}
		})
	}
}
