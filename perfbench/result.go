package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// op is one user-visible operation of a pass: an exp.Run call of a batch
// workload, or one HTTP submission of serve-mix.
type op struct {
	Name string `json:"name"`
	// Due is when the operation was due, relative to the pass start;
	// batch operations are due when the previous one returns.
	Due time.Duration `json:"due"`
	// Sent is when it was actually issued (serve-mix: handed to a free
	// connection).
	Sent time.Duration `json:"sent"`
	// Latency is completion minus Due.
	Latency time.Duration `json:"latency"`
	OK      bool          `json:"ok"`
	// Status is a serve-mix response's HTTP status, and Hit marks one
	// answered by the cache fast path.
	Status int  `json:"status,omitempty"`
	Hit    bool `json:"hit,omitempty"`
	// Err says why the operation counts as failed.
	Err string `json:"err,omitempty"`
}

// passResult is what a pass process reports to the driver, as one JSON
// line on its standard output.
type passResult struct {
	Workload string `json:"workload"`
	// Wall and CPU cover the timed pass only (CPU is user+sys).
	Wall   time.Duration `json:"wall"`
	CPU    time.Duration `json:"cpu"`
	MaxRSS int64         `json:"max_rss_kb"`
	Ops    []op          `json:"ops"`
	// Digests holds the sha256 of each report's exp.WriteJSON encoding,
	// by operation name.
	Digests map[string]string `json:"digests,omitempty"`
	// Failures lists failed checks that belong to no single operation
	// (the cold-start guard, the generation count).
	Failures []string `json:"failures,omitempty"`
	// Layer holds the per-layer metrics of a traced pass.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// failed counts the pass's failed operations and checks.
func (r *passResult) failed() int {
	n := len(r.Failures)
	for _, o := range r.Ops {
		if !o.OK {
			n++
		}
	}
	return n
}

// host is the fingerprint recorded next to every result.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func fingerprint() host {
	h := host{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// usage returns the process's CPU time (user+sys) so far and its peak
// resident set in KiB.
func usage() (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
