package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"tivaware/internal/tiv"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
)

// The shape of an end-to-end run; the shares are of --seconds.
const (
	setupRuns    = 5    // cluster launches per run; setup figures are their medians
	openShare    = 0.65 // open loop at the workload's rate
	closedShare  = 0.30 // closed loop with nproc callers
	warmShare    = 0.05 // untimed closed-loop warm-up after the last setup
	openWorkers  = 64   // requests in flight at most in the open loop
	checkSamples = 160  // open-loop requests kept for the reference check
	closedWindow = 500 * time.Millisecond
	// p50Window is the requests per window of the reported median
	// latency; p99Window leaves ten samples beyond each window's p99.
	p50Window     = 250
	p99Window     = 1000
	lagBehindP99  = 2.0  // ms: send-lag p99 above this flags the generator as behind
	lagBehindWall = 1.05 // an open loop that overran its schedule by 5% also flags it
)

// newClient dials the front daemon the way the workload says: framed
// with nproc connections, or HTTP with the binary codec over at most
// nproc connections.
func newClient(d *daemon, w *workload, nproc int) (*tivclient.Client, *http.Transport) {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     nproc,
		MaxIdleConnsPerHost: nproc,
		IdleConnTimeout:     90 * time.Second,
	}
	opts := tivclient.Options{HTTPClient: &http.Client{Transport: tr}, Binary: true, RequestTimeout: failLatency}
	if w.frames {
		opts.FrameAddr, opts.FrameConns = d.frameAddr, nproc
	}
	return tivclient.New(d.httpURL, opts), tr
}

// send issues one request and returns its answers. It fails when the
// call fails or any query in it carries an error.
func send(ctx context.Context, c *tivclient.Client, o *op) ([]tivaware.Result, error) {
	if o.update {
		_, err := c.ApplyUpdate(ctx, o.i, o.j, o.rtt)
		return nil, err
	}
	res, err := c.QueryBatch(ctx, o.queries)
	if err != nil {
		return nil, err
	}
	for _, r := range res {
		if r.Err != nil {
			return res, r.Err
		}
	}
	return res, nil
}

// tally counts operations attempted and failed.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
}

func (t *tally) add(attempted, failed int) {
	t.mu.Lock()
	t.attempted += attempted
	t.failed += failed
	t.mu.Unlock()
}

// reference answers queries in-process over the run's matrix. It is
// a fresh tivaware.Service analysed with the worker count a tivd on
// this machine uses (GOMAXPROCS = nproc), so float accumulation order
// matches the daemons'.
func newReference(cfg runConfig) (*tivaware.Service, error) {
	return tivaware.NewFromMatrix(cfg.m.Clone(), tivaware.Options{Workers: cfg.nproc, Live: cfg.w.live})
}

func refAnswer(ctx context.Context, ref *tivaware.Service, q tivaware.Query) (tivaware.Result, error) {
	res, err := ref.QueryBatch(ctx, []tivaware.Query{q})
	if err != nil {
		return tivaware.Result{}, err
	}
	return res[0], nil
}

// runServed is the end-to-end run: real tivd processes, one generator.
func runServed(ctx context.Context, cfg runConfig, bin string) (outcome, error) {
	w := cfg.w
	var t tally
	ref, err := newReference(cfg)
	if err != nil {
		return outcome{}, err
	}
	probe := tivaware.Query{Kind: tivaware.KindTop, K: w.topK}
	probeWant, err := refAnswer(ctx, ref, probe)
	if err != nil {
		return outcome{}, err
	}

	// Set-up: launch to first correct answer, several times; the last
	// cluster stays up for the measured phases. setup_s is the CPU time
	// the daemons spent getting there: the work set-up does, which the
	// host's CPU steal does not inflate the way it inflates wall time.
	var (
		setupWall []float64
		setupCPU  []float64
		cl        *cluster
		client    *tivclient.Client
		tr        *http.Transport
	)
	for r := 0; r < setupRuns; r++ {
		t0 := time.Now()
		cl, err = startCluster(ctx, bin, cfg.matrixPath, w)
		if err != nil {
			return outcome{}, err
		}
		client, tr = newClient(cl.front, w, cfg.nproc)
		if err := awaitAnswer(ctx, client, probe, probeWant, &t); err != nil {
			client.Close()
			cl.stop()
			return outcome{}, fmt.Errorf("set-up %d: %w", r, err)
		}
		setupWall = append(setupWall, time.Since(t0).Seconds())
		var ns uint64
		for _, p := range cl.pids() {
			n, cerr := procCPUNanos(p)
			ns, err = ns+n, errors.Join(err, cerr)
		}
		if err != nil {
			client.Close()
			cl.stop()
			return outcome{}, err
		}
		setupCPU = append(setupCPU, float64(ns)/1e9)
		if r < setupRuns-1 {
			client.Close()
			tr.CloseIdleConnections()
			cl.stop()
		}
	}
	defer func() {
		client.Close()
		tr.CloseIdleConnections()
		cl.stop()
	}()

	deck := newPairDeck(w.n, cfg.seed^0x5eed)
	var writes writeLog
	call := func(o *op) ([]tivaware.Result, error) {
		res, err := send(ctx, client, o)
		if o.update && err == nil {
			writes.add(o)
		}
		failedOps := 0
		switch {
		case err != nil && res != nil:
			failedOps = countErrs(res) // per-query errors
		case err != nil:
			failedOps = o.weight()
		}
		t.add(o.weight(), failedOps)
		return res, err
	}

	// runClosed runs a closed loop with nproc callers, each with its
	// own stream.
	runClosed := func(dur time.Duration, seedBase int64) closedResult {
		streams := make([]*stream, cfg.nproc)
		for c := range streams {
			streams[c] = newStream(w, seedBase+int64(c), deck)
		}
		return closedLoop(ctx, cfg.nproc, dur, closedWindow, func(c int) (int, error) {
			o := streams[c].next()
			_, err := call(&o)
			return o.weight(), err
		})
	}

	// Warm-up: dial the pools and fault in the daemons' working sets.
	runClosed(scaled(cfg.seconds, warmShare), cfg.seed*7919+100)

	// Open loop.
	openDur := scaled(cfg.seconds, openShare)
	n := int(w.rate * openDur.Seconds())
	st := newStream(w, cfg.seed*7919+1, deck)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = st.next()
	}
	every := max(1, n/checkSamples)
	samples := make([]sampled, n)
	pids := cl.pids()
	srv0, err := cpuTicks(pids)
	if err != nil {
		return outcome{}, err
	}
	self0, err := cpuTicks([]string{"self"})
	if err != nil {
		return outcome{}, err
	}
	open := openLoop(ctx, n, time.Duration(float64(time.Second)/w.rate), openWorkers, nanosleep, func(i int) error {
		res, err := call(&ops[i])
		if err == nil && (i%every == 0 || isDelayRead(&ops[i])) {
			samples[i] = sampled{queries: ops[i].queries, results: res}
		}
		return err
	})
	srv1, err := cpuTicks(pids)
	if err != nil {
		return outcome{}, err
	}
	self1, err := cpuTicks([]string{"self"})
	if err != nil {
		return outcome{}, err
	}
	answered := 0
	for i := range open.failed {
		if !open.failed[i] {
			answered += ops[i].weight()
		}
	}

	closed := runClosed(scaled(cfg.seconds, closedShare), cfg.seed*7919+200)

	// Quiesced: check the answers against the reference.
	var checked int
	if w.live {
		checked, err = checkLive(ctx, cfg, client, ref, samples, &writes, &t)
	} else {
		checked, err = checkStatic(ctx, ref, samples, &t)
	}
	if err != nil {
		return outcome{}, err
	}

	var hwm uint64
	for _, p := range pids {
		kb, err := procHWMKB(p)
		if err != nil {
			return outcome{}, err
		}
		hwm += kb
	}
	if !cl.alive() {
		return outcome{}, fmt.Errorf("a tivd process exited during the run")
	}

	lat := newDist(open.latMS)
	lag := newDist(open.lagMS)
	p99 := lat.percentile(0.99)
	behind := lag.quantile(0.99) > lagBehindP99 || open.wall.Seconds() > lagBehindWall*openDur.Seconds()
	perQuery := func(ticks uint64) float64 {
		return float64(ticks) * tickSeconds * 1e6 / float64(max(answered, 1))
	}
	out := outcome{
		attempted: t.attempted,
		failed:    t.failed,
		metrics: map[string]metric{
			"setup_s":                 {newDist(setupCPU).median(), "s"},
			"server_cpu_us_per_query": {perQuery(srv1 - srv0), "us"},
			"client_cpu_us_per_query": {perQuery(self1 - self0), "us"},
			"rss_mb":                  {float64(hwm) / 1024, "MB"},
			"success_ratio":           {1 - float64(t.failed)/float64(max(t.attempted, 1)), "ratio"},
		},
		// Wall-clock latency and throughput swing with the host's CPU
		// steal far beyond any gate's bound on a shared VM (README.md),
		// so they are reported, with the steal behind them, not gated.
		report: map[string]any{
			"p50_ms":              windowQuantile(open.latMS, p50Window, 0.5),
			"p99_ms":              windowQuantile(open.latMS, p99Window, 0.99),
			"capacity_qps":        newDist(closed.windowRates).median(),
			"setup_wall_s":        newDist(setupWall).median(),
			"setup_wall_s_runs":   setupWall,
			"setup_s_runs":        setupCPU,
			"open_requests":       len(open.latMS),
			"open_ops_answered":   answered,
			"open_rate_per_s":     w.rate,
			"latency_samples":     p99.Samples,
			"p50_windows":         len(open.latMS) / p50Window,
			"run_p50_ms":          lat.median(),
			"run_p90_ms":          lat.quantile(0.9),
			"run_p99":             p99,
			"p99_windows":         len(open.latMS) / p99Window,
			"send_lag_p50_ms":     lag.median(),
			"send_lag_p99_ms":     lag.quantile(0.99),
			"send_lag_max_ms":     lag.max(),
			"generator_behind":    behind,
			"open_wall_s":         open.wall.Seconds(),
			"server_cpu_ticks":    srv1 - srv0,
			"client_cpu_ticks":    self1 - self0,
			"capacity_windows":    closed.windowRates,
			"closed_ops":          closed.ops,
			"closed_failed":       closed.failed,
			"checked_ops":         checked,
			"writes_acknowledged": writes.len(),
			"tolerance":           map[string]float64{"static": tolStatic, "live": tolLive},
		},
	}
	return out, nil
}

// scaled returns share × d.
func scaled(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * share)
}

func countErrs(res []tivaware.Result) int {
	n := 0
	for _, r := range res {
		if r.Err != nil {
			n++
		}
	}
	return n
}

func isDelayRead(o *op) bool {
	return !o.update && len(o.queries) == 1 && o.queries[0].Kind == tivaware.KindDelay
}

// awaitAnswer polls the front daemon with q until it answers (a
// freshly started gateway may still be probing its shards), then
// checks the answer.
func awaitAnswer(ctx context.Context, c *tivclient.Client, q tivaware.Query, want tivaware.Result, t *tally) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		res, err := c.QueryBatch(ctx, []tivaware.Query{q})
		if err == nil {
			t.add(1, 0)
			if err := compareResult(q, res[0], want, tolStatic); err != nil {
				t.add(0, 1)
				return err
			}
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			t.add(1, 1)
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkStatic compares the sampled answers with the reference's.
func checkStatic(ctx context.Context, ref *tivaware.Service, samples []sampled, t *tally) (int, error) {
	checked := 0
	for _, s := range samples {
		if s.results == nil {
			continue
		}
		for k, q := range s.queries {
			want, err := refAnswer(ctx, ref, q)
			if err != nil {
				return checked, err
			}
			checked++
			if compareResult(q, s.results[k], want, tolStatic) != nil {
				t.add(0, 1)
			}
		}
	}
	return checked, nil
}

// writeLog records acknowledged writes.
type writeLog struct {
	mu      sync.Mutex
	updates []tiv.Update
}

func (l *writeLog) add(o *op) {
	l.mu.Lock()
	l.updates = append(l.updates, tiv.Update{I: o.i, J: o.j, RTT: o.rtt})
	l.mu.Unlock()
}

func (l *writeLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.updates)
}

// checkLive checks a live daemon once the load has stopped. Reads
// during the churn race writes, so only one kind of them has a fixed
// answer: the delay of a pair no write touched. After the churn every
// written pair must read back its written delay, and the top edges
// must match a reference that applied the same writes.
func checkLive(ctx context.Context, cfg runConfig, c *tivclient.Client, ref *tivaware.Service, samples []sampled, writes *writeLog, t *tally) (int, error) {
	written := map[[2]int]bool{}
	for _, u := range writes.updates {
		written[[2]int{u.I, u.J}] = true
		written[[2]int{u.J, u.I}] = true
	}
	checked := 0
	for _, s := range samples {
		if len(s.queries) != 1 || s.queries[0].Kind != tivaware.KindDelay || s.results == nil {
			continue
		}
		q := s.queries[0]
		if written[[2]int{q.I, q.J}] {
			continue
		}
		want, err := refAnswer(ctx, ref, q) // the reference has no writes yet
		if err != nil {
			return checked, err
		}
		checked++
		if compareResult(q, s.results[0], want, tolStatic) != nil {
			t.add(0, 1)
		}
	}

	if len(writes.updates) > 0 {
		if _, err := ref.ApplyBatch(writes.updates); err != nil {
			return checked, err
		}
	}
	var qs []tivaware.Query
	for _, u := range writes.updates {
		qs = append(qs, tivaware.Query{Kind: tivaware.KindDelay, I: u.I, J: u.J})
	}
	qs = append(qs, tivaware.Query{Kind: tivaware.KindTop, K: cfg.w.topK})
	const chunk = 64
	for lo := 0; lo < len(qs); lo += chunk {
		part := qs[lo:min(lo+chunk, len(qs))]
		got, err := c.QueryBatch(ctx, part)
		if err != nil {
			t.add(len(part), len(part))
			continue
		}
		for k, q := range part {
			want, err := refAnswer(ctx, ref, q)
			if err != nil {
				return checked, err
			}
			checked++
			bad := compareResult(q, got[k], want, tolLive) != nil
			if q.Kind == tivaware.KindDelay {
				// The written RTT itself, exactly.
				u := writes.updates[lo+k]
				bad = bad || !got[k].DelayOK || got[k].Delay != u.RTT
			}
			t.add(1, b2i(bad))
		}
	}
	return checked, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
