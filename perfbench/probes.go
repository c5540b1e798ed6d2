package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/cache/stackdist"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// Probe sizes: each layer probe drives its layer directly, through its
// public functions, on inputs drawn from the pass's simulation seed.
const (
	probeBench      = "gcc"
	probeRecords    = 500_000 // memory records for the trace and cache probes
	probeInstrs     = 300_000 // instructions for the CPU probe
	probeHierAccess = 200_000 // accesses for the hierarchy probe
	probeDinRecords = 200_000 // records in the din decode probe's file
	probeExpCalls   = 2000    // ReportKey calls
	probeEncodes    = 200     // report encodes
	probeBlobs      = 200     // store puts and gets
)

// layerUnits is every per-layer metric a traced run prints, with its
// unit.
var layerUnits = map[string]string{
	"cpu.ns_per_instr":                   "ns",
	"cpu.allocs_per_instr":               "allocs",
	"cpu.sim_instr":                      "count",
	"cpu.sim_cycles":                     "count",
	"workload.gen_ns_per_rec":            "ns",
	"workload.gen_allocs_per_rec":        "allocs",
	"tracestore.pack_ns_per_rec":         "ns",
	"tracestore.replay_ns_per_rec":       "ns",
	"tracestore.generations":             "count",
	"tracestore.hit_ratio":               "ratio",
	"tracestore.requests":                "count",
	"cache.cache_ns_per_access.a2":       "ns",
	"cache.cache_ns_per_access.a2-Hp-Sk": "ns",
	"cache.grid_ns_per_point_access":     "ns",
	"cache.sharded_grid_speedup":         "ratio",
	"stackdist.family_ns_per_access":     "ns",
	"hierarchy.twolevel_ns_per_access":   "ns",
	"hierarchy.pages_mapped":             "count",
	"trace.din_gz_decode_ns_per_rec":     "ns",
	"trace.din_gz_decode_allocs_per_rec": "allocs",
	"exp.report_key_us":                  "us",
	"exp.report_encode_us":               "us",
	"store.get_us":                       "us",
	"store.put_us":                       "us",
	"store.corruptions":                  "count",
	"serve.fastpath_p50_ms":              "ms",
	"serve.simulated_p50_ms":             "ms",
	"serve.fastpath_ratio":               "ratio",
	"serve.requests":                     "count",
	"serve.coalesced":                    "count",
	"serve.queue_depth_max":              "count",
	"serve.busy_ratio":                   "ratio",
	"serve.rejected_429":                 "count",
	"serve.gen_late_p99_ms":              "ms",
	"serve.p99_ms":                       "ms",
	"tracing.overhead_ratio":             "ratio",
	"experiments.replay_k2_miss_delta":   "count",
}

func init() {
	for _, name := range layerExperiments {
		layerUnits["experiments."+name+"_s"] = "s"
	}
}

// layerExperiments names every experiments.<name>_s metric; a workload
// that does not run an experiment reports 0 for it.
var layerExperiments = append(append(append([]string{}, paperCPU...), paperMem...), "replay_k1", "replay_k2", "threec_ext")

// layerMetrics gathers the per-layer metrics of a traced pass: time in
// each experiment, the trace memo's counters and the serve-mix service
// view from the pass, then one probe per layer.
func (p *pass) layerMetrics(ctx context.Context, ts tracestore.Stats) (map[string]float64, error) {
	m := map[string]float64{}
	for _, name := range layerExperiments {
		m["experiments."+name+"_s"] = p.rec.total("experiments." + name).Seconds()
	}
	m["experiments.replay_k2_miss_delta"] = p.missDelta
	m["tracestore.generations"] = float64(ts.Generations)
	m["tracestore.requests"] = float64(ts.Hits + ts.Misses)
	m["tracestore.hit_ratio"] = ratio(ts.Hits, ts.Hits+ts.Misses)
	st, _ := p.state.(*serveState)
	serveLayer(m, st, p.res.Ops)
	p.span = p.rec.begin("probes", 0)
	err := p.probe(ctx, m)
	p.rec.end(p.span)
	if err != nil {
		return nil, err
	}
	if st != nil {
		m["store.corruptions"] += float64(st.rc.StoreStats().Corruptions)
	}
	return m, nil
}

// serveLayer fills the serve.* metrics; all are 0 without a server.
func serveLayer(m map[string]float64, st *serveState, ops []op) {
	for _, k := range []string{"requests", "p99_ms", "fastpath_p50_ms", "simulated_p50_ms", "fastpath_ratio",
		"coalesced", "queue_depth_max", "busy_ratio", "rejected_429", "gen_late_p99_ms"} {
		m["serve."+k] = 0
	}
	if st == nil {
		return
	}
	var all, hit, sim, late []float64
	for _, o := range ops {
		all = append(all, ms(o.Latency))
		late = append(late, ms(o.Sent-o.Due))
		switch {
		case o.Hit:
			hit = append(hit, ms(o.Latency))
		case o.OK:
			sim = append(sim, ms(o.Latency))
		}
		if o.Status == http.StatusTooManyRequests {
			m["serve.rejected_429"]++
		}
	}
	m["serve.requests"] = float64(len(ops))
	m["serve.p99_ms"] = quantile(all, 0.99)
	m["serve.fastpath_p50_ms"] = median(hit)
	m["serve.simulated_p50_ms"] = median(sim)
	m["serve.fastpath_ratio"] = ratio(uint64(len(hit)), uint64(len(ops)))
	m["serve.gen_late_p99_ms"] = quantile(late, 0.99)
	var busy float64
	for _, s := range st.samples {
		m["serve.queue_depth_max"] = max(m["serve.queue_depth_max"], float64(s.QueueDepth))
		if s.Workers > 0 {
			busy += float64(s.Jobs[serve.StateRunning]) / float64(s.Workers)
		}
		m["serve.coalesced"] = float64(s.Coalesced)
	}
	if len(st.samples) > 0 {
		m["serve.busy_ratio"] = busy / float64(len(st.samples))
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// measure runs fn inside a span named name and returns its wall time and
// heap allocation count.
func (p *pass) measure(name string, fn func() error) (time.Duration, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := p.rec.begin(name, p.span)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	p.rec.end(id)
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs, err
}

func perUnit(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// probe drives each layer directly and records its cost per unit of
// work.
func (p *pass) probe(ctx context.Context, m map[string]float64) error {
	prof, ok := workload.ByName(probeBench)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", probeBench)
	}
	seed := p.simSeed

	// workload: chunked generation.
	d, allocs, _ := p.measure("workload.generate", func() error {
		g := workload.NewGenerator(prof, seed)
		buf := make([]trace.Rec, 4096)
		for n := 0; n < probeRecords; {
			k, _ := g.ReadChunk(buf)
			n += k
		}
		return nil
	})
	m["workload.gen_ns_per_rec"] = perUnit(d, probeRecords)
	m["workload.gen_allocs_per_rec"] = float64(allocs) / probeRecords

	// tracestore: first touch packs, the second call replays.
	ts := tracestore.New(tracestore.DefaultMaxBytes)
	var recs []trace.Rec
	for _, step := range []struct {
		name string
		fn   func([]trace.Rec)
	}{
		{"tracestore.pack", func([]trace.Rec) {}},
		{"tracestore.replay", func([]trace.Rec) {}},
		{"tracestore.collect", func(r []trace.Rec) { recs = append(recs, r...) }},
	} {
		d, _, err := p.measure(step.name, func() error {
			return ts.ReplayMem(ctx, prof, seed, probeRecords, step.fn)
		})
		if err != nil {
			return err
		}
		if step.name != "tracestore.collect" {
			m[step.name+"_ns_per_rec"] = perUnit(d, probeRecords)
		}
	}

	// cache: one Cache per scheme, one Access per record.
	for _, scheme := range []index.Scheme{index.SchemeModulo, index.SchemeIPolySk} {
		c := cache.New(cache.Config{
			Size: 8 << 10, BlockSize: 32, Ways: 2,
			Placement: index.MustNew(scheme, 7, 2, 14),
		})
		d, _, _ := p.measure("cache.access."+string(scheme), func() error {
			for i := range recs {
				c.Access(recs[i].Addr, recs[i].Op == trace.OpStore)
			}
			return nil
		})
		m["cache.cache_ns_per_access."+string(scheme)] = perUnit(d, len(recs))
	}

	// Grid on the sweep's design space, sequential and sharded, both fed
	// from the packed store.
	spec := experiments.SweepGridSpec()
	seq, _, err := p.measure("cache.grid", func() error {
		g := cache.NewGrid(spec)
		return ts.ReplayMem(ctx, prof, seed, probeRecords, func(r []trace.Rec) { g.AccessStream(r) })
	})
	if err != nil {
		return err
	}
	m["cache.grid_ns_per_point_access"] = perUnit(seq, len(recs)*len(spec))
	sharded, _, err := p.measure("cache.sharded_grid", func() error {
		g := cache.NewShardedGrid(spec, runtime.NumCPU())
		bc := trace.NewBroadcast(g.Shards(), 6, tracestore.ChunkLen)
		var wg sync.WaitGroup
		for k := 0; k < g.Shards(); k++ {
			wg.Add(1)
			go func(sub *cache.Grid) {
				defer wg.Done()
				bc.Receive(k, func(r []trace.Rec) { sub.AccessStream(r) })
			}(g.Sub(k))
		}
		err := ts.ReplayMemChunks(ctx, prof, seed, probeRecords, bc.Slot, bc.Publish)
		bc.CloseSend(err)
		wg.Wait()
		return err
	})
	if err != nil {
		return err
	}
	m["cache.sharded_grid_speedup"] = float64(seq) / float64(sharded)

	// stackdist: the curves family over the conventional set-count ladder.
	d, _, _ = p.measure("stackdist.family", func() error {
		fam := stackdist.NewFamily(index.SchemeModulo, []int{32, 64, 128, 256, 512, 1024}, 32, 8, 14, false, false)
		for lo := 0; lo < len(recs); lo += tracestore.ChunkLen {
			fam.AccessStream(recs[lo:min(lo+tracestore.ChunkLen, len(recs))])
		}
		return nil
	})
	m["stackdist.family_ns_per_access"] = perUnit(d, len(recs))

	// hierarchy: the holes sweep configuration (8 KB over 64 KB, both
	// I-Poly direct-mapped) with scrambled pages and random traffic.
	var pages int
	d, _, _ = p.measure("hierarchy.twolevel", func() error {
		h := hierarchy.New(hierarchy.Config{
			L1: cache.Config{Size: 8 << 10, BlockSize: 32, Ways: 1,
				Placement: index.NewIPolyDefault(1, 8, 14), WriteAllocate: true},
			L2: cache.Config{Size: 64 << 10, BlockSize: 32, Ways: 1,
				Placement: index.NewIPolyDefault(1, 11, 19), WriteBack: true, WriteAllocate: true},
			ScrambleSeed: seed,
		})
		r := rng.New(seed)
		for i := 0; i < probeHierAccess; i++ {
			h.Access(uint64(r.Intn(16<<20)), false)
		}
		pages = h.PT.Mapped()
		return nil
	})
	m["hierarchy.twolevel_ns_per_access"] = perUnit(d, probeHierAccess)
	m["hierarchy.pages_mapped"] = float64(pages)

	// cpu: the paper's core with a conventional 8 KB L1 over a
	// pre-generated instruction trace.
	instrs := trace.Collect(workload.Source(prof, seed), probeInstrs)
	var res cpu.Result
	d, allocs, _ = p.measure("cpu.run", func() error {
		core := cpu.New(cpu.DefaultConfig(cpu.PaperCache(8<<10, nil)))
		res = core.Run(trace.NewSliceSource(instrs), uint64(len(instrs)))
		return nil
	})
	m["cpu.ns_per_instr"] = perUnit(d, len(instrs))
	m["cpu.allocs_per_instr"] = float64(allocs) / float64(len(instrs))
	m["cpu.sim_instr"] = float64(res.Instructions)
	m["cpu.sim_cycles"] = float64(res.Cycles)

	// trace: sniff, gunzip and parse a din file held in memory.
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	dw := trace.NewDinWriter(zw)
	if err := dw.WriteChunk(recs[:min(probeDinRecords, len(recs))]); err != nil {
		return err
	}
	if err := dw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	var decoded int
	d, allocs, err = p.measure("trace.din_gz_decode", func() error {
		src, _, err := trace.OpenSniff(bytes.NewReader(gz.Bytes()))
		if err != nil {
			return err
		}
		buf := make([]trace.Rec, 4096)
		for {
			k, eof := src.ReadChunk(buf)
			decoded += k
			if eof {
				return src.Err()
			}
		}
	})
	if err != nil {
		return err
	}
	m["trace.din_gz_decode_ns_per_rec"] = perUnit(d, decoded)
	m["trace.din_gz_decode_allocs_per_rec"] = float64(allocs) / float64(decoded)

	return p.probeService(ctx, m)
}

// probeService measures the request-path layers: result-key derivation
// and report encoding in exp, and puts and gets in the artifact store.
func (p *pass) probeService(ctx context.Context, m map[string]float64) error {
	c := serveCfg{Seed: p.simSeed}
	e, ok := exp.Get(serveExperiment)
	if !ok {
		return fmt.Errorf("experiment %q is not registered", serveExperiment)
	}
	cfg, err := exp.DecodeConfig(e, c.config())
	if err != nil {
		return err
	}
	d, _, err := p.measure("exp.report_key", func() error {
		for i := 0; i < probeExpCalls; i++ {
			if _, err := exp.ReportKey(e, cfg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["exp.report_key_us"] = perUnit(d, probeExpCalls) / 1e3
	rep, err := exp.RunWith(ctx, nil, e, cfg)
	if err != nil {
		return err
	}
	var blob bytes.Buffer
	d, _, err = p.measure("exp.report_encode", func() error {
		for i := 0; i < probeEncodes; i++ {
			blob.Reset()
			if err := exp.WriteJSON(&blob, rep); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["exp.report_encode_us"] = perUnit(d, probeEncodes) / 1e3

	ds, err := store.Open(p.scratch("probe-store"), store.DefaultMaxBytes)
	if err != nil {
		return err
	}
	key := func(i int) string { return fmt.Sprintf("%064x", i) }
	d, _, err = p.measure("store.put", func() error {
		for i := 0; i < probeBlobs; i++ {
			if err := ds.Put(exp.ReportKind, key(i), "probe", nil, blob.Bytes()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["store.put_us"] = perUnit(d, probeBlobs) / 1e3
	d, _, err = p.measure("store.get", func() error {
		for i := 0; i < probeBlobs; i++ {
			got, ok := ds.Get(exp.ReportKind, key(i), "probe")
			if !ok || !bytes.Equal(got, blob.Bytes()) {
				return fmt.Errorf("store probe: blob %d did not read back", i)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["store.get_us"] = perUnit(d, probeBlobs) / 1e3
	m["store.corruptions"] = float64(ds.Stats().Corruptions)
	return nil
}
