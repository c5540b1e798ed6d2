package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

func TestSimSeedFolds(t *testing.T) {
	for seed, want := range map[uint64]uint64{0: 1997, 1: 1997, 1997: 1997, 12345: 1997, holdoutSeed: holdoutSeed} {
		if got := simSeedFor(seed); got != want {
			t.Errorf("simSeedFor(%d) = %d, want %d", seed, got, want)
		}
		if _, ok := pinned("paper-cpu", simSeedFor(seed), "table2"); !ok {
			t.Errorf("seed %d folds onto simulation seed %d, which has no pinned digests", seed, simSeedFor(seed))
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this command prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found beside the benchmark")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if lookupWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the command", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json has %d %s metrics, the command prints %d", len(got), kind, len(want))
		}
		for _, m := range got {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("BENCHMARK.json %s metric %q in %q: the command prints it in %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndUnits)
	check("per_layer", b.PerLayer, layerUnits)
}

// TestLauncherRefusesBareDirectory runs the launcher where only the
// benchmark's own files exist: it must fail without printing a result.
func TestLauncherRefusesBareDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"run.sh", "go.mod"} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "perfbench", f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "paper-cpu", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatal("launcher succeeded without the repository's sources")
	}
	if bytes.Contains(out, []byte(`"correct"`)) {
		t.Fatalf("launcher printed a result without the repository's sources: %s", out)
	}
}

// TestWorkloadsLeaveNothingBehind runs every workload briefly and checks
// that its outputs pass and that no process, listening socket or
// scratch directory outlives the command.
func TestWorkloadsLeaveNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once at full scale")
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	dir := t.TempDir()
	before := listeners(t)
	runs := []struct {
		workload, trace string
	}{
		{"paper-cpu", "0"}, {"paper-mem", "0"}, {"trace-ingest", "0"}, {"serve-mix", "0"},
		{"trace-ingest", "1"}, {"serve-mix", "1"},
	}
	for _, r := range runs {
		cmd := exec.Command(bin, "--workload", r.workload, "--seed", "1", "--seconds", "1", "--trace", r.trace)
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s --trace %s: %v", r.workload, r.trace, err)
		}
		var res output
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			t.Fatalf("%s --trace %s: last line: %v", r.workload, r.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", r.workload, r.trace, res.Correct, res.Attempted, res.Failed)
		}
		want := endToEndUnits
		if r.trace == "1" {
			want = layerUnits
		}
		for name, unit := range want {
			if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
				t.Errorf("%s --trace %s: metric %s missing or not in %s", r.workload, r.trace, name, unit)
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s --trace %s: %d metrics, want %d", r.workload, r.trace, len(res.Metrics), len(want))
		}

		left, err := os.ReadDir(filepath.Join(dir, ".perfbench", "tmp"))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range left {
			t.Errorf("%s --trace %s left %s behind", r.workload, r.trace, e.Name())
		}
		for _, pid := range processesOf(t, bin) {
			t.Errorf("%s --trace %s left process %s running", r.workload, r.trace, pid)
		}
		for l := range listeners(t) {
			if !before[l] {
				t.Errorf("%s --trace %s left a listening socket on %s", r.workload, r.trace, l)
			}
		}
	}
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// processesOf lists the processes running the executable at path.
func processesOf(t *testing.T, path string) []string {
	t.Helper()
	procs, err := filepath.Glob("/proc/[0-9]*/exe")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range procs {
		if exe, err := os.Readlink(p); err == nil && exe == path {
			out = append(out, filepath.Base(filepath.Dir(p)))
		}
	}
	return out
}

// listeners returns the local addresses of the host's listening TCP
// sockets.
func listeners(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for _, f := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		file, err := os.Open(f)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(file)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) > 3 && fields[3] == "0A" { // TCP_LISTEN
				out[fields[1]] = true
			}
		}
		file.Close()
	}
	return out
}
