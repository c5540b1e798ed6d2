package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/store"
)

// The serve-mix traffic.  Every config has the shape of the
// repository's own load harness (cmd/loadserve and BENCH_serve.json):
// stddev at 20,000 instructions, the experiment's default worker count,
// sweeping serveHot seeds, which set-up warms into the cache.  The pass
// offers an open loop of Poisson arrivals at serveRate, serveRequests
// per pass (the last due at serveRequests/serveRate s), over at most
// min(serveClients, nproc) connections.  serveFresh of them, at random
// places, draw one of serveFreshPool seeds the cache does not hold yet.
// The rate and the 95% hit share are a guess: nothing in the repository
// records how the service is used.
const (
	serveExperiment   = "stddev"
	serveInstructions = 20_000
	serveHot          = 8
	serveClients      = 4
	serveRate         = 150.0
	serveRequests     = 600
	serveFresh        = 30
	serveFreshPool    = 256
	// serveLimit is the latency limit goodput counts against.
	serveLimit = 250 * time.Millisecond
)

// serveCfg is one submitted config.
type serveCfg struct {
	Seed uint64
}

func (c serveCfg) config() []byte {
	return []byte(fmt.Sprintf(`{"instructions": %d, "seed": %d}`, serveInstructions, c.Seed))
}

func (c serveCfg) body() []byte {
	return []byte(fmt.Sprintf(`{"experiment": %q, "config": %s}`, serveExperiment, c.config()))
}

// name labels a config's report among the pinned digests.
func (c serveCfg) name() string { return fmt.Sprintf("%s/seed=%d", serveExperiment, c.Seed) }

// serveState is serve-mix's set-up output and per-pass record.
type serveState struct {
	srv    *serve.Server
	rc     *exp.ResultCache
	base   string
	client *http.Client
	// cfgs holds the hot configs first, then the fresh pool.
	cfgs  []serveCfg
	nHot  int
	sched []sreq

	mu     sync.Mutex
	bodies map[int][]byte // config index -> first served envelope

	samples []serve.StatsResponse
}

// sreq is one scheduled request.
type sreq struct {
	cfg int
	due time.Duration
}

func serveConfigs(simSeed, seed uint64) []serveCfg {
	var cfgs []serveCfg
	for i := 0; i < serveHot; i++ {
		cfgs = append(cfgs, serveCfg{simSeed + uint64(i)})
	}
	// Fresh seeds sit far from the hot ones and differ per benchmark
	// seed.
	for j := 0; j < serveFreshPool; j++ {
		cfgs = append(cfgs, serveCfg{1_000_000 + seed*uint64(serveFreshPool) + uint64(j)})
	}
	return cfgs
}

// serveConns is the number of connections the load generator uses.
func serveConns() int { return min(serveClients, runtime.NumCPU()) }

// setupServe opens a result cache on a fresh store, starts the server on
// a loopback port and warms the cache with the hot configs.
func setupServe(ctx context.Context, p *pass) error {
	d, err := store.Open(p.scratch("store"), store.DefaultMaxBytes)
	if err != nil {
		return err
	}
	st := &serveState{rc: exp.NewResultCache(d), bodies: map[int][]byte{}}
	st.cfgs = serveConfigs(p.simSeed, p.seed)
	st.nHot = serveHot
	// The server's own defaults: one worker per CPU, the default queue.
	st.srv = serve.New(serve.Options{Cache: st.rc})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: st.srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	conns := serveConns()
	st.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   60 * time.Second,
	}
	p.cleanup = append(p.cleanup, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Shutdown closes the listener and idle connections and waits
		// for active requests; the server's queue drains after it.
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
			hs.Close()
		}
		<-served
		if err := st.srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
		}
		st.client.CloseIdleConnections()
	})
	st.base = "http://" + ln.Addr().String()
	p.state = st

	for i := 0; i < st.nHot; i++ {
		code, _, _, err := st.submit(ctx, i)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("warming %s: HTTP %d", st.cfgs[i].name(), code)
		}
	}
	st.sched = schedule(p.seed, p.index, st.nHot, len(st.cfgs)-st.nHot)
	return nil
}

// schedule draws the pass's arrivals: exponential gaps, and serveFresh
// fresh configs among hot ones.
func schedule(seed uint64, index, nHot, nFresh int) []sreq {
	r := rand.New(rand.NewPCG(seed, uint64(index)))
	fresh := map[int]bool{}
	for _, i := range r.Perm(serveRequests)[:serveFresh] {
		fresh[i] = true
	}
	out := make([]sreq, serveRequests)
	at := make([]float64, serveRequests)
	var t float64
	for i := range out {
		t += r.ExpFloat64()
		at[i] = t
		out[i].cfg = r.IntN(nHot)
		if fresh[i] {
			out[i].cfg = nHot + r.IntN(nFresh)
		}
	}
	// Scale the arrivals so the last one is due at serveRequests /
	// serveRate seconds: every pass offers the same load over the same
	// time.
	for i := range out {
		out[i].due = time.Duration(at[i] / t * serveRequests / serveRate * float64(time.Second))
	}
	return out
}

// submit POSTs config i with ?wait=1 and returns the status, the body
// and whether the fast path answered.
func (st *serveState) submit(ctx context.Context, i int) (int, []byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.base+"/v1/jobs?wait=1", bytes.NewReader(st.cfgs[i].body()))
	if err != nil {
		return 0, nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, nil, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, false, err
	}
	return resp.StatusCode, body, resp.Header.Get("X-Repro-Cache") == "hit", nil
}

// runServe sends the schedule open loop: a dispatcher hands each request
// to a free connection at its due time (late when none is free), and
// each request's latency counts from its due time.
func runServe(ctx context.Context, p *pass) error {
	st := p.state.(*serveState)
	conns := serveConns()
	ops := make([]op, len(st.sched))
	work := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				ops[i] = st.send(ctx, p, i)
			}
		}()
	}
	stopSampler := st.sample(ctx, p)
	for i, rq := range st.sched {
		if d := rq.due - time.Since(p.start); d > 0 {
			time.Sleep(d)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	stopSampler()
	p.res.Ops = append(p.res.Ops, ops...)
	return nil
}

// send issues scheduled request i and records it as an operation.
func (st *serveState) send(ctx context.Context, p *pass, i int) op {
	rq := st.sched[i]
	o := op{Name: serveExperiment, Due: rq.due, Sent: time.Since(p.start)}
	id := p.rec.begin("serve.request", p.span)
	code, body, hit, err := st.submit(ctx, rq.cfg)
	o.Latency = time.Since(p.start) - rq.due
	o.Status, o.Hit = code, hit
	p.rec.end(id)
	switch {
	case err != nil:
		o.Err = err.Error()
	case code != http.StatusOK:
		o.Err = fmt.Sprintf("HTTP %d: %s", code, bytes.TrimSpace(body))
	default:
		o.OK = true
		st.mu.Lock()
		if first, seen := st.bodies[rq.cfg]; !seen {
			st.bodies[rq.cfg] = body
		} else if !bytes.Equal(first, body) {
			o.OK, o.Err = false, "served envelope differs from an earlier response for the same config"
		}
		st.mu.Unlock()
	}
	return o
}

// sample polls GET /v1/stats during a traced pass; the returned function
// stops the poller and waits for it.
func (st *serveState) sample(ctx context.Context, p *pass) func() {
	if p.rec == nil {
		return func() {}
	}
	c := &http.Client{Timeout: 10 * time.Second}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer c.CloseIdleConnections()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if s, err := st.stats(ctx, c); err == nil {
				st.samples = append(st.samples, s)
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

func (st *serveState) stats(ctx context.Context, c *http.Client) (serve.StatsResponse, error) {
	var s serve.StatsResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.base+"/v1/stats", nil)
	if err != nil {
		return s, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// verifyServe checks every served envelope byte for byte against a
// direct exp.Run of the same config, and the hot configs' reports
// against their pinned digests.
func verifyServe(ctx context.Context, p *pass) error {
	st := p.state.(*serveState)
	for i, body := range st.bodies {
		c := st.cfgs[i]
		e, ok := exp.Get(serveExperiment)
		if !ok {
			return fmt.Errorf("experiment %q is not registered", serveExperiment)
		}
		cfg, err := exp.DecodeConfig(e, c.config())
		if err != nil {
			return err
		}
		rep, err := exp.RunWith(ctx, nil, e, cfg)
		if err != nil {
			p.fail("direct run of %s: %v", c.name(), err)
			continue
		}
		var direct bytes.Buffer
		if err := exp.WriteJSON(&direct, rep); err != nil {
			return err
		}
		if !bytes.Equal(direct.Bytes(), body) {
			p.fail("served envelope for %s differs from a direct exp.Run", c.name())
		}
		if i < st.nHot {
			sum := fmt.Sprintf("%x", sha256.Sum256(body))
			p.res.Digests[c.name()] = sum
			if want, ok := pinned(p.w.name, p.simSeed, c.name()); !ok || sum != want {
				p.fail("report digest of %s is %s, pinned %q", c.name(), sum, want)
			}
		}
	}
	return nil
}
