package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/exp"
	_ "repro/internal/experiments" // registers the experiments
	"repro/internal/tracestore"
)

// pass is the state of one pass process.
type pass struct {
	w *workloadSpec
	// seed is the --seed the driver was given; simSeed is the
	// simulation seed it folds onto (see simSeedFor).
	seed, simSeed uint64
	// index numbers the pass within its run.
	index int
	// dir is the pass's private scratch directory, removed at exit.
	dir string
	// rec is nil in an untraced pass.
	rec *recorder
	res *passResult
	// start is the start of the timed pass, and span the span around
	// it and around the probes that follow.
	start time.Time
	span  int
	// cleanup runs, in reverse order, before the process exits.
	cleanup []func()
	// state is the workload's own set-up output.
	state any
	// missDelta is trace-ingest's |misses at 2 shards - misses at 1|.
	missDelta float64
}

// fail records a failed check that belongs to no single operation.
func (p *pass) fail(format string, args ...any) {
	p.res.Failures = append(p.res.Failures, fmt.Sprintf(format, args...))
}

// passMain is the entry point of a pass process: set up, report ready,
// run the timed pass, and print its passResult as one JSON line.
func passMain(args []string) int {
	fs := flag.NewFlagSet("pass", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 0, "workload seed")
	traced := fs.Bool("trace", false, "record spans and per-layer metrics")
	index := fs.Int("index", 0, "number of the pass within its run")
	tmp := fs.String("tmp", "", "directory for the pass's scratch files")
	spans := fs.String("spans", "", "write the spans of a traced pass to this file")
	setupOnly := fs.Bool("setup-only", false, "set up, report ready and exit without a pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookupWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench pass: unknown workload %q\n", *name)
		return 2
	}
	dir, err := os.MkdirTemp(*tmp, "pass-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench pass:", err)
		return 1
	}
	p := &pass{
		w: w, seed: *seed, simSeed: simSeedFor(*seed), index: *index, dir: dir,
		res: &passResult{Workload: w.name, Digests: map[string]string{}},
	}
	p.cleanup = append(p.cleanup, func() { os.RemoveAll(dir) })
	defer func() {
		for i := len(p.cleanup) - 1; i >= 0; i-- {
			p.cleanup[i]()
		}
	}()
	if *traced {
		p.rec = newRecorder()
	}
	if err := p.run(context.Background(), *spans, *setupOnly); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench pass:", err)
		return 1
	}
	return 0
}

func (p *pass) run(ctx context.Context, spansPath string, setupOnly bool) error {
	out := bufio.NewWriter(os.Stdout)
	if p.w.batch {
		// Batch workloads measure fresh simulation: no result cache.
		exp.SetCache(nil)
	}
	if p.w.setup != nil {
		if err := p.w.setup(ctx, p); err != nil {
			return fmt.Errorf("%s set-up: %w", p.w.name, err)
		}
	}
	fmt.Fprintln(out, "ready")
	if err := out.Flush(); err != nil {
		return err
	}
	if setupOnly {
		return nil
	}

	// Cold-start guard: a batch pass must find the process-wide trace
	// memo empty, or it would time replays of a warm memo.
	if p.w.batch {
		if st := tracestore.Default.Stats(); st != (tracestore.Stats{}) {
			p.fail("cold-start guard: tracestore.Default is not empty at pass start: %+v", st)
		}
	}
	cpu0, _ := usage()
	p.span = p.rec.begin("pass."+p.w.name, 0)
	p.start = time.Now()
	if err := p.w.run(ctx, p); err != nil {
		return fmt.Errorf("%s pass: %w", p.w.name, err)
	}
	p.res.Wall = time.Since(p.start)
	p.rec.end(p.span)
	cpu1, rss := usage()
	p.res.CPU = cpu1 - cpu0
	p.res.MaxRSS = rss

	ts := tracestore.Default.Stats()
	if p.w.batch && ts.Generations != p.w.generations {
		p.fail("tracestore generated %d traces, want %d (one per distinct profile and seed)", ts.Generations, p.w.generations)
	}
	if p.w.verify != nil {
		if err := p.w.verify(ctx, p); err != nil {
			return fmt.Errorf("%s verify: %w", p.w.name, err)
		}
	}
	if p.rec != nil {
		layer, err := p.layerMetrics(ctx, ts)
		if err != nil {
			return fmt.Errorf("%s layer probes: %w", p.w.name, err)
		}
		p.res.Layer = layer
		if spansPath != "" {
			if err := p.rec.write(spansPath, fingerprint()); err != nil {
				return err
			}
		}
	}
	b, err := json.Marshal(p.res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	return out.Flush()
}

// runExp runs one experiment as an operation of the pass, with a span
// around the call into the experiments layer, and checks its report.
func (p *pass) runExp(ctx context.Context, opName string, e exp.Experiment, cfg exp.Config) *exp.Report {
	due := time.Since(p.start)
	id := p.rec.begin("experiments."+opName, p.span)
	rep, err := exp.Run(ctx, e, cfg)
	p.rec.end(id)
	o := op{Name: opName, Due: due, Sent: due, Latency: time.Since(p.start) - due, OK: true}
	switch {
	case err != nil:
		o.OK, o.Err = false, err.Error()
	case rep.Wall <= 0:
		// Only a fresh simulation stamps a wall time; a report served
		// from a result cache has none.
		o.OK, o.Err = false, "report was not freshly simulated"
	default:
		sum, err := reportDigest(rep)
		if err != nil {
			o.OK, o.Err = false, err.Error()
			break
		}
		p.res.Digests[opName] = sum
		if want, ok := pinned(p.w.name, p.simSeed, opName); !ok {
			o.OK, o.Err = false, fmt.Sprintf("no pinned digest (got %s)", sum)
		} else if sum != want {
			o.OK, o.Err = false, fmt.Sprintf("report digest %s, pinned %s", sum, want)
		}
	}
	p.res.Ops = append(p.res.Ops, o)
	if !o.OK {
		return nil
	}
	return rep
}

// reportDigest is the sha256 of a report's canonical JSON encoding.
func reportDigest(rep *exp.Report) (string, error) {
	h := sha256.New()
	if err := exp.WriteJSON(h, rep); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// experimentConfig returns the named experiment with its default config
// at the pass's simulation seed.
func (p *pass) experimentConfig(name string) (exp.Experiment, exp.Config, error) {
	e, ok := exp.Get(name)
	if !ok {
		return exp.Experiment{}, nil, fmt.Errorf("experiment %q is not registered", name)
	}
	cfg := e.New()
	cfg.BaseConfig().Seed = p.simSeed
	return e, cfg, nil
}

// runDefaults runs each named experiment at its default scale.
func runDefaults(names []string) func(context.Context, *pass) error {
	return func(ctx context.Context, p *pass) error {
		for _, name := range names {
			e, cfg, err := p.experimentConfig(name)
			if err != nil {
				return err
			}
			p.runExp(ctx, name, e, cfg)
		}
		return nil
	}
}

// scratch returns a path in the pass's scratch directory.
func (p *pass) scratch(name string) string { return filepath.Join(p.dir, name) }
