package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// runBudget bounds a whole run, so the command always exits within the
// three minutes a run may take.
const runBudget = 170 * time.Second

// An untraced run reports the median of at least minSetups set-up
// samples, unless the extra set-ups would take more than setupBudget.
const (
	minSetups   = 21
	setupBudget = 2 * time.Second
)

// batchLimit is the latency limit goodput counts a batch workload's
// experiment runs against; serve-mix uses serveLimit.
const batchLimit = time.Minute

// passRun is one pass as the driver saw it.
type passRun struct {
	// setup runs from starting the pass process until it reports ready:
	// process start-up plus the workload's set-up.
	setup time.Duration
	res   passResult
}

// output is the last line the command prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverMain runs one workload for the given seconds: fresh pass
// processes until the time is up (at least one), then the metrics.
func driverMain(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-cpu, paper-mem, trace-ingest or serve-mix")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "how long to measure, in seconds (at least one pass always runs)")
	traced := fs.Int("trace", 0, "1 runs traced passes beside untraced ones and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	w := lookupWorkload(*name)
	switch {
	case w == nil:
		return 2, fmt.Errorf("unknown workload %q", *name)
	case *seconds < 1:
		return 2, fmt.Errorf("--seconds must be at least 1")
	case *traced != 0 && *traced != 1:
		return 2, fmt.Errorf("--trace must be 0 or 1")
	}
	work, err := filepath.Abs(".perfbench")
	if err != nil {
		return 1, err
	}
	tmp := filepath.Join(work, "tmp")
	for _, d := range []string{tmp, filepath.Join(work, "results"), filepath.Join(work, "spans")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return 1, err
		}
	}
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()

	budget := time.Duration(*seconds) * time.Second
	start := time.Now()
	var plain, withSpans []passRun
	for i := 0; ; i++ {
		spans := ""
		// A traced run alternates untraced and traced passes, so the
		// tracing overhead compares passes of one run.
		tr := *traced == 1 && i%2 == 1
		if tr {
			spans = filepath.Join(work, "spans", fmt.Sprintf("%s-seed%d-pass%d.json", w.name, *seed, i))
		}
		r, err := runPass(ctx, self, tmp, w, *seed, i, spans)
		if err != nil {
			return 1, err
		}
		if tr {
			withSpans = append(withSpans, r)
		} else {
			plain = append(plain, r)
		}
		// Once every kind of pass has run, stop before a pass that would
		// end more than half a pass past the budget.
		elapsed := time.Since(start)
		next := elapsed / time.Duration(i+1)
		enough := len(plain) > 0 && (*traced == 0 || len(withSpans) > 0)
		if enough && (elapsed+next/2 > budget || elapsed+next > runBudget/2) {
			break
		}
	}

	// Set-up is short next to a pass for most workloads, so top the
	// set-up samples up with set-up-only processes, within a small time
	// budget.
	var setups []float64
	for _, r := range plain {
		setups = append(setups, r.setup.Seconds())
	}
	extra := time.Now()
	for len(setups) < minSetups && *traced == 0 && time.Since(extra) < setupBudget {
		r, err := runProcess(ctx, self, tmp, w, *seed, len(setups), "--setup-only")
		if err != nil {
			return 1, err
		}
		setups = append(setups, r.setup.Seconds())
	}

	all := append(append([]passRun{}, plain...), withSpans...)
	out := output{Metrics: map[string]metric{}}
	for _, r := range all {
		out.Attempted += len(r.res.Ops)
		out.Failed += r.res.failed()
		for _, o := range r.res.Ops {
			if !o.OK {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %s failed: %s\n", w.name, o.Name, o.Err)
			}
		}
		for _, f := range r.res.Failures {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, f)
		}
	}
	out.Failed = min(out.Failed, out.Attempted)
	out.Correct = out.Attempted > 0 && out.Failed == 0
	if *traced == 1 {
		layerOut(out.Metrics, plain, withSpans)
	} else {
		endToEndOut(out.Metrics, w, plain, setups, out.Attempted, out.Failed)
	}
	if err := record(work, w, *seed, *traced, all, out); err != nil {
		return 1, err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return 1, err
	}
	fmt.Printf("%s\n", b)
	if !out.Correct {
		return 1, errors.New("output checks failed")
	}
	return 0, nil
}

// runPass runs one pass in a fresh process and collects its result.
// spans, when set, makes the pass traced and names its span file.
func runPass(ctx context.Context, self, tmp string, w *workloadSpec, seed uint64, index int, spans string) (passRun, error) {
	if spans == "" {
		return runProcess(ctx, self, tmp, w, seed, index)
	}
	return runProcess(ctx, self, tmp, w, seed, index, "--trace", "--spans", spans)
}

// runProcess starts a pass process with the extra arguments, waits for
// it and decodes its result.
func runProcess(ctx context.Context, self, tmp string, w *workloadSpec, seed uint64, index int, extra ...string) (passRun, error) {
	var r passRun
	args := []string{"pass", "--workload", w.name, "--seed", fmt.Sprint(seed), "--index", fmt.Sprint(index), "--tmp", tmp}
	args = append(args, extra...)
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	// The pass dies with the driver, whatever ends the driver.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.WaitDelay = 5 * time.Second
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return r, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return r, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	var last []byte
	for sc.Scan() {
		if sc.Text() == "ready" {
			r.setup = time.Since(t0)
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return r, fmt.Errorf("%s pass %d: %w", w.name, index, err)
	}
	if scanErr != nil {
		return r, fmt.Errorf("%s pass %d: reading its output: %w", w.name, index, scanErr)
	}
	if len(last) == 0 {
		return r, nil // a set-up-only process prints no result
	}
	if err := json.Unmarshal(last, &r.res); err != nil {
		return r, fmt.Errorf("%s pass %d: decoding its result: %w", w.name, index, err)
	}
	return r, nil
}

// endToEndUnits is every end-to-end metric a run prints, with its unit.
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"batch_s":       "s",
	"cpu_s":         "s",
	"peak_rss_mb":   "MB",
	"ok_ratio":      "ratio",
	"op_p50_ms":     "ms",
	"goodput_per_s": "1/s",
}

// endToEndOut fills the end-to-end metrics from the untraced passes.
func endToEndOut(m map[string]metric, w *workloadSpec, runs []passRun, setup []float64, attempted, failed int) {
	var wall, cpu, rss []float64
	var wallSum float64
	good := 0
	limit := batchLimit
	if !w.batch {
		limit = serveLimit
	}
	for _, r := range runs {
		t := passSeconds(w, r)
		wall = append(wall, t)
		wallSum += t
		cpu = append(cpu, r.res.CPU.Seconds())
		rss = append(rss, float64(r.res.MaxRSS)/1024)
		for _, o := range r.res.Ops {
			if o.OK && o.Latency <= limit {
				good++
			}
		}
	}
	lat := opLatencies(w, runs)
	vals := map[string]float64{
		"setup_s":       median(setup),
		"batch_s":       median(wall),
		"cpu_s":         median(cpu),
		"peak_rss_mb":   median(rss),
		"ok_ratio":      1 - float64(failed)/float64(max(attempted, 1)),
		"op_p50_ms":     median(lat),
		"goodput_per_s": float64(good) / wallSum,
	}
	for k, v := range vals {
		m[k] = metric{v, endToEndUnits[k]}
	}
}

// passSeconds is how long a pass kept the program busy, the time batch_s
// and goodput_per_s count.  A batch pass is busy for its whole wall
// time.  serve-mix's schedule fixes how long its pass lasts, so there
// only the time during which at least one request was in flight counts.
func passSeconds(w *workloadSpec, r passRun) float64 {
	if w.batch {
		return r.res.Wall.Seconds()
	}
	ops := append([]op(nil), r.res.Ops...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].Sent < ops[j].Sent })
	var busy, end time.Duration
	for _, o := range ops {
		start, done := max(o.Sent, end), o.Due+o.Latency
		if done > start {
			busy += done - start
			end = done
		}
	}
	return busy.Seconds()
}

// opLatencies returns the latencies, in ms, op_p50_ms is the median of.
// serve-mix pools every request of the run.  A batch pass repeats the
// same operations, so each contributes its median over the passes: one
// stalled pass then moves no percentile.
func opLatencies(w *workloadSpec, runs []passRun) []float64 {
	var lat []float64
	if !w.batch {
		for _, r := range runs {
			for _, o := range r.res.Ops {
				lat = append(lat, ms(o.Latency))
			}
		}
		return lat
	}
	for i := range runs[0].res.Ops {
		var per []float64
		for _, r := range runs {
			if i < len(r.res.Ops) {
				per = append(per, ms(r.res.Ops[i].Latency))
			}
		}
		lat = append(lat, median(per))
	}
	return lat
}

// layerOut fills the per-layer metrics: the median of each over the
// traced passes, plus the tracing overhead against the untraced ones.
func layerOut(m map[string]metric, plain, traced []passRun) {
	vals := map[string][]float64{}
	var tw, pw []float64
	for _, r := range traced {
		for k, v := range r.res.Layer {
			vals[k] = append(vals[k], v)
		}
		tw = append(tw, r.res.Wall.Seconds())
	}
	for _, r := range plain {
		pw = append(pw, r.res.Wall.Seconds())
	}
	for k, v := range vals {
		m[k] = metric{median(v), layerUnits[k]}
	}
	m["tracing.overhead_ratio"] = metric{median(tw)/median(pw) - 1, "ratio"}
}

// record writes the run's metrics, the host fingerprint and every pass
// to .perfbench/results, and prints the fingerprint.
func record(work string, w *workloadSpec, seed uint64, traced int, runs []passRun, out output) error {
	type passLine struct {
		Setup time.Duration `json:"setup"`
		passResult
	}
	doc := struct {
		Host     host       `json:"host"`
		Workload string     `json:"workload"`
		Seed     uint64     `json:"seed"`
		Trace    int        `json:"trace"`
		Result   output     `json:"result"`
		Passes   []passLine `json:"passes"`
	}{Host: fingerprint(), Workload: w.name, Seed: seed, Trace: traced, Result: out}
	for _, r := range runs {
		doc.Passes = append(doc.Passes, passLine{r.setup, r.res})
	}
	hb, err := json.Marshal(struct {
		Host host `json:"host"`
	}{doc.Host})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", hb)
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(work, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, traced))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
