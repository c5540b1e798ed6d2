package main

import (
	"compress/gzip"
	"context"
	"fmt"
	"os"

	"repro/internal/exp"
	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/internal/workload"
)

// workloadSpec is one named input set of the benchmark.
type workloadSpec struct {
	name string
	// batch workloads run experiments through exp.Run with no result
	// cache, and their pass must start with an empty tracestore.Default.
	batch bool
	// generations is the number of traces tracestore.Default must have
	// generated by the end of a batch pass: one per distinct (profile,
	// seed) the pass touches.
	generations uint64
	// setup runs before the timed pass; run is the timed pass; verify
	// runs untimed after it.
	setup, run, verify func(ctx context.Context, p *pass) error
}

// paperCPU and paperMem are the two halves of `repro all` minus replay:
// the experiments whose time goes to the out-of-order CPU model, and
// those whose time goes to the memory-trace engines.
var (
	paperCPU = []string{"table2", "table3", "ablate", "options31"}
	paperMem = []string{"holes", "curves", "missratio", "sweep", "threec", "stddev", "colassoc", "fig1", "interleave"}
)

var workloads = []*workloadSpec{
	// The out-of-order core, MSHRs and Cache do the work.
	{
		name:        "paper-cpu",
		batch:       true,
		generations: 3,
		run:         runDefaults(paperCPU),
	},
	// tracestore, Grid, stackdist and hierarchy do the work.
	{
		name:        "paper-mem",
		batch:       true,
		generations: 18,
		run:         runDefaults(paperMem),
	},
	// din decode of a multi-million-record file is on the blocking path.
	{
		name:        "trace-ingest",
		batch:       true,
		generations: 1,
		setup:       setupIngest,
		run:         runIngest,
	},
	// The request path of an in-process server: mostly fast-path hits,
	// some fresh simulations.
	{
		name:   "serve-mix",
		setup:  setupServe,
		run:    runServe,
		verify: verifyServe,
	},
}

func lookupWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// holdoutSeed is the simulation seed kept back for confirming a claimed
// gain; development runs never use it.
const holdoutSeed = 8191

// simSeedFor folds a benchmark seed onto the simulation seed of the
// experiments: holdoutSeed selects itself, and every other seed selects
// the experiments' default.  Both have pinned report digests, so every
// run checks its outputs exactly.  The seed still varies what is not
// pinned: the serve-mix arrival schedule and its fresh configs.
func simSeedFor(seed uint64) uint64 {
	if seed == holdoutSeed {
		return holdoutSeed
	}
	return exp.DefaultSeed
}

// The trace-ingest input: ingestRecords memory records of ingestBench,
// written as gzipped din under a fixed base name (reports carry it).
const (
	ingestBench   = "gcc"
	ingestRecords = 2_000_000
	ingestFile    = "ingest.din.gz"
)

// setupIngest writes the trace-ingest input file.
func setupIngest(ctx context.Context, p *pass) error {
	prof, ok := workload.ByName(ingestBench)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", ingestBench)
	}
	path := p.scratch(ingestFile)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	dw := trace.NewDinWriter(zw)
	src := &trace.Limit{S: &trace.MemOnly{S: workload.Source(prof, p.simSeed)}, N: ingestRecords}
	buf := make([]trace.Rec, 4096)
	for {
		n, eof := src.ReadChunk(buf)
		if err := dw.WriteChunk(buf[:n]); err != nil {
			return err
		}
		if eof {
			break
		}
	}
	if err := dw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	p.state = path
	return f.Close()
}

// runIngest replays the ingested file sequentially and at two time
// shards, then classifies its misses.
func runIngest(ctx context.Context, p *pass) error {
	path := p.state.(string)
	replay := func(opName string, shards int) (*exp.Report, error) {
		e, cfg, err := p.experimentConfig("replay")
		if err != nil {
			return nil, err
		}
		rc := cfg.(*experiments.ReplayConfig)
		rc.Instructions = ingestRecords
		rc.TraceFile = path
		rc.TimeShards = shards
		return p.runExp(ctx, opName, e, rc), nil
	}
	k1, err := replay("replay_k1", 1)
	if err != nil {
		return err
	}
	k2, err := replay("replay_k2", 2)
	if err != nil {
		return err
	}
	if k1 != nil && k2 != nil {
		p.missDelta = missDelta(k1, k2)
	}
	e, cfg, err := p.experimentConfig("threec")
	if err != nil {
		return err
	}
	cfg.BaseConfig().Instructions = ingestRecords
	cfg.BaseConfig().TraceFile = path
	p.runExp(ctx, "threec_ext", e, cfg)
	return nil
}

// missDelta is |misses at 2 time shards - misses at 1|.  Both reports
// are pinned, so the difference is fixed too; it is kept as a count
// because the two should be equal and are not on this input.
func missDelta(k1, k2 *exp.Report) float64 {
	misses := func(rep *exp.Report) int64 {
		t := rep.Table("replay")
		ci := t.ColumnIndex("misses")
		return t.Columns[ci].Ints[0]
	}
	d := misses(k2) - misses(k1)
	return float64(max(d, -d))
}
