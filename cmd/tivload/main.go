// Command tivload is the traffic-plane load generator: it drives a
// mixed rank/closest/detour/top/update workload at a target request
// rate (or closed-loop, as fast as the daemon answers) against a tivd
// monolith or a tivshard gateway, and reports throughput plus a
// p50/p99/p999 latency trajectory from per-worker log-bucketed
// histograms. Runs persist as BENCH_load_*.json so CI can gate tail
// latency against a checked-in baseline.
//
// Drive an already-running daemon:
//
//	tivload -target http://127.0.0.1:7070 -duration 10s -conns 8
//
// Spin up an in-process 400-node monolith and compare the four wire
// configurations (single-shot JSON, single-shot binary, batched JSON,
// batched binary) on identical fixed-seed traffic:
//
//	tivload -synth 400 -compare -batch 32 -o BENCH_load_monolith.json
//
// Same, but against a 3-shard scatter-gather gateway:
//
//	tivload -synth 400 -shards 3 -compare -o BENCH_load_gateway.json
//
// The mix is weighted: -mix rank=4,closest=2,detour=2,top=1 (add
// update=N against a -live daemon to blend writes in). -qps paces
// requests per second across all connections; 0 means closed loop.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tivaware/internal/stats"
	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivd"
	"tivaware/internal/tivframe"
	"tivaware/internal/tivshard/testcluster"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tivload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tivload", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		target   = fs.String("target", "", "base URL of a running daemon (mutually exclusive with -synth)")
		synthN   = fs.Int("synth", 0, "spin up an in-process DS2-like daemon of this many nodes")
		shardsK  = fs.Int("shards", 0, "with -synth: front the matrix with this many shards behind a gateway (0 = monolith)")
		live     = fs.Bool("live", false, "with -synth: run the daemon live so the mix may include update=N")
		seed     = fs.Int64("seed", 1, "seed for the synthetic matrix and the query stream")
		duration = fs.Duration("duration", 5*time.Second, "measured time per run")
		warmup   = fs.Duration("warmup", 500*time.Millisecond, "unmeasured warm-up per run (fills connection pools and the query cache)")
		qps      = fs.Float64("qps", 0, "target request rate across all connections (0 = closed loop)")
		conns    = fs.Int("conns", 4, "concurrent load connections (workers)")
		batch    = fs.Int("batch", 1, "queries per request; >1 uses POST /v1/batch")
		binary   = fs.Bool("binary", false, "use the compact binary wire framing")
		frame    = fs.Bool("frame", false, "drive the persistent framed transport (tivd -frame-listen) instead of HTTP; with -compare, adds framed runs after the HTTP ones")
		frameTgt = fs.String("frame-addr", "", "framed address of the -target daemon (tcp \"host:port\" or \"unix:///path.sock\"); required with -target -frame")
		mixSpec  = fs.String("mix", "rank=4,closest=2,detour=2,top=1", "weighted op mix: kind=weight[,kind=weight...]; kinds: rank closest detour top delay analysis update")
		compare  = fs.Bool("compare", false, "run single-json, single-binary, batch-json, batch-binary on identical traffic and report the batch+binary speedup")
		rankK    = fs.Int("rankk", 8, "k for rank queries in the mix")
		topK     = fs.Int("topk", 16, "k for top queries in the mix")
		out      = fs.String("o", "", "also persist the runs as a BENCH_load JSON file at this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*target == "") == (*synthN == 0) {
		fs.Usage()
		return fmt.Errorf("exactly one of -target or -synth required")
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be >= 1")
	}
	if *conns < 1 {
		return fmt.Errorf("-conns must be >= 1")
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		return err
	}
	if mix.weightOf("update") > 0 && *target == "" && !*live {
		return fmt.Errorf("mix includes update but the in-process daemon is not -live")
	}

	url := *target
	fAddr := *frameTgt
	var cleanup func()
	switch {
	case url != "":
		if *frame && fAddr == "" {
			return fmt.Errorf("-frame against a -target daemon needs -frame-addr")
		}
	case *shardsK > 0:
		fmt.Fprintf(stdout, "tivload: starting in-process %d-node cluster over %d shards (seed %d)\n", *synthN, *shardsK, *seed)
		cl, err := testcluster.Start(testcluster.Config{
			N: *synthN, Shards: *shardsK, Seed: *seed, Live: *live,
			ServeGateway: true, Frames: *frame,
		})
		if err != nil {
			return err
		}
		cleanup, url, fAddr = cl.Close, cl.GatewayURL, cl.GatewayFrameAddr
	default:
		fmt.Fprintf(stdout, "tivload: starting in-process %d-node monolith (seed %d)\n", *synthN, *seed)
		url, fAddr, cleanup, err = serveMonolith(*synthN, *seed, *live, *frame)
		if err != nil {
			return err
		}
	}
	if cleanup != nil {
		defer cleanup()
	}

	probe := tivclient.New(url, tivclient.Options{})
	h, err := probe.Healthz(context.Background())
	if err != nil {
		return fmt.Errorf("target %s unreachable: %w", url, err)
	}
	n := h.N
	fmt.Fprintf(stdout, "tivload: target %s: %d nodes, live=%v\n", url, n, h.Live)

	cfgs := []runConfig{{name: runName(*batch, *binary, *frame), batch: *batch, binary: *binary, frame: *frame}}
	if *compare {
		b := *batch
		if b == 1 {
			b = 32
		}
		cfgs = []runConfig{
			{name: "single-json", batch: 1, binary: false},
			{name: "single-binary", batch: 1, binary: true},
			{name: "batch-json", batch: b, binary: false},
			{name: "batch-binary", batch: b, binary: true},
		}
		if *frame {
			cfgs = append(cfgs,
				runConfig{name: "single-frame", batch: 1, binary: true, frame: true},
				runConfig{name: "batch-frame", batch: b, binary: true, frame: true},
			)
		}
	}

	load := loadSpec{
		url: url, frameAddr: fAddr, n: n, mix: mix, seed: *seed,
		conns: *conns, qps: *qps,
		warmup: *warmup, duration: *duration,
		rankK: *rankK, topK: *topK,
	}
	report := benchReport{
		Benchmark:  "tivload",
		Target:     targetLabel(*target, *synthN, *shardsK),
		Nodes:      n,
		Shards:     *shardsK,
		Seed:       *seed,
		Mix:        *mixSpec,
		QPS:        *qps,
		Conns:      *conns,
		DurationS:  duration.Seconds(),
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		When:       time.Now().UTC().Format(time.RFC3339),
	}
	for _, rc := range cfgs {
		res, err := runLoad(load, rc, probe)
		if err != nil {
			return fmt.Errorf("run %s: %w", rc.name, err)
		}
		report.Runs = append(report.Runs, res)
		printRun(stdout, res)
	}
	if *compare {
		base, best := findRun(report.Runs, "single-json"), findRun(report.Runs, "batch-binary")
		if base != nil && best != nil && base.QueriesPerS > 0 {
			report.SpeedupBatchBinary = best.QueriesPerS / base.QueriesPerS
			fmt.Fprintf(stdout, "tivload: batch-binary vs single-json closed loop: %.2fx queries/s\n",
				report.SpeedupBatchBinary)
			// The tail-latency claim: pace batch-binary at 3x the query
			// throughput single-json just sustained and show its p99 does
			// not exceed the single-json closed-loop p99.
			paced := load
			paced.qps = 3 * base.QueriesPerS / float64(cfgs[len(cfgs)-1].batch)
			res, err := runLoad(paced, runConfig{
				name: "batch-binary-3x-paced", batch: cfgs[len(cfgs)-1].batch, binary: true,
			}, probe)
			if err != nil {
				return fmt.Errorf("run batch-binary-3x-paced: %w", err)
			}
			report.Runs = append(report.Runs, res)
			printRun(stdout, res)
			report.PacedP99Ms, report.BaseP99Ms = res.P99Ms, base.P99Ms
			fmt.Fprintf(stdout, "tivload: at 3x single-json throughput, batch-binary p99 %.3fms vs single-json p99 %.3fms\n",
				res.P99Ms, base.P99Ms)
		}
		// The framed-transport claim: batched frames sustain at least
		// HTTP batch-binary's throughput at equal or lower p99.
		if bb, bf := findRun(report.Runs, "batch-binary"), findRun(report.Runs, "batch-frame"); bb != nil && bf != nil && bb.QueriesPerS > 0 {
			report.SpeedupFrameVsHTTP = bf.QueriesPerS / bb.QueriesPerS
			fmt.Fprintf(stdout, "tivload: batch-frame vs batch-binary: %.2fx queries/s (p99 %.3fms vs %.3fms)\n",
				report.SpeedupFrameVsHTTP, bf.P99Ms, bb.P99Ms)
		}
	}
	if *out != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "tivload: wrote %s\n", *out)
	}
	return nil
}

// targetLabel names the target in the persisted report.
func targetLabel(target string, n, shards int) string {
	if target != "" {
		return target
	}
	if shards > 0 {
		return fmt.Sprintf("in-process gateway over %d shards (%d nodes)", shards, n)
	}
	return fmt.Sprintf("in-process monolith (%d nodes)", n)
}

func runName(batch int, binary, frame bool) string {
	mode, codec := "single", "json"
	if batch > 1 {
		mode = "batch"
	}
	if binary {
		codec = "binary"
	}
	if frame {
		codec = "frame"
	}
	return mode + "-" + codec
}

// serveMonolith boots one in-process tivd daemon over a synthetic
// matrix on a loopback listener; with frames, a framed listener too.
func serveMonolith(n int, seed int64, live, frames bool) (url, frameAddr string, cleanup func(), err error) {
	sp, err := synth.Generate(synth.DS2Like(n, seed))
	if err != nil {
		return "", "", nil, err
	}
	svc, err := tivaware.NewFromMatrix(sp.Matrix, tivaware.Options{Live: live})
	if err != nil {
		return "", "", nil, err
	}
	srv, err := tivd.New(svc, tivd.Options{})
	if err != nil {
		return "", "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", nil, err
	}
	var fsrv *tivframe.Server
	if frames {
		fln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ln.Close()
			return "", "", nil, err
		}
		fsrv = tivframe.NewServer(srv.FrameHandler(), tivframe.Options{})
		go func() { _ = fsrv.Serve(fln) }()
		frameAddr = fln.Addr().String()
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	cleanup = func() {
		srv.Close()
		if fsrv != nil {
			_ = fsrv.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			_ = hs.Close()
		}
	}
	return "http://" + ln.Addr().String(), frameAddr, cleanup, nil
}

// mixEntry is one weighted op kind; mixTable picks by cumulative
// weight so the fixed-seed stream is reproducible across runs.
type mixEntry struct {
	kind   string
	weight int
	cum    int
}

type mixTable struct {
	entries []mixEntry
	total   int
}

var mixKinds = map[string]bool{
	"rank": true, "closest": true, "detour": true, "top": true,
	"delay": true, "analysis": true, "update": true,
}

func parseMix(spec string) (mixTable, error) {
	var t mixTable
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, val, ok := strings.Cut(part, "=")
		if !ok {
			return t, fmt.Errorf("mix entry %q: want kind=weight", part)
		}
		if !mixKinds[kind] {
			return t, fmt.Errorf("mix entry %q: unknown kind (want rank/closest/detour/top/delay/analysis/update)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return t, fmt.Errorf("mix entry %q: bad weight", part)
		}
		if w == 0 {
			continue
		}
		t.total += w
		t.entries = append(t.entries, mixEntry{kind: kind, weight: w, cum: t.total})
	}
	if t.total == 0 {
		return t, fmt.Errorf("mix %q selects nothing", spec)
	}
	return t, nil
}

func (t mixTable) pick(rng *rand.Rand) string {
	r := rng.Intn(t.total)
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].cum > r })
	return t.entries[i].kind
}

func (t mixTable) weightOf(kind string) int {
	for _, e := range t.entries {
		if e.kind == kind {
			return e.weight
		}
	}
	return 0
}

// loadSpec is everything a run shares regardless of wire config.
type loadSpec struct {
	url       string
	frameAddr string
	n         int
	mix       mixTable
	seed      int64
	conns     int
	qps       float64
	warmup    time.Duration
	duration  time.Duration
	rankK     int
	topK      int
}

type runConfig struct {
	name   string
	batch  int
	binary bool
	frame  bool
}

// runResult is one run's persisted measurement.
type runResult struct {
	Name         string      `json:"name"`
	Batch        int         `json:"batch"`
	Binary       bool        `json:"binary"`
	Requests     uint64      `json:"requests"`
	Queries      uint64      `json:"queries"`
	Errors       uint64      `json:"errors"`
	DurationS    float64     `json:"duration_s"`
	RequestsPerS float64     `json:"requests_per_s"`
	QueriesPerS  float64     `json:"queries_per_s"`
	MeanMs       float64     `json:"mean_ms"`
	P50Ms        float64     `json:"p50_ms"`
	P99Ms        float64     `json:"p99_ms"`
	P999Ms       float64     `json:"p999_ms"`
	MaxMs        float64     `json:"max_ms"`
	Cache        *cacheDelta `json:"cache,omitempty"`
}

// cacheDelta is the daemon-side query-cache activity attributable to
// one run (healthz counter difference across it).
type cacheDelta struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

type benchReport struct {
	Benchmark string  `json:"benchmark"`
	Target    string  `json:"target"`
	Nodes     int     `json:"nodes"`
	Shards    int     `json:"shards,omitempty"`
	Seed      int64   `json:"seed"`
	Mix       string  `json:"mix"`
	QPS       float64 `json:"qps"`
	Conns     int     `json:"conns"`
	DurationS float64 `json:"duration_s"`
	GoVersion string  `json:"go_version"`
	// GoMaxProcs and NumCPU pin the core budget a run was recorded
	// under: latency trajectories from different core counts are not
	// comparable, and the tivload-smoke guard refuses to gate across
	// a mismatch.
	GoMaxProcs         int         `json:"gomaxprocs"`
	NumCPU             int         `json:"num_cpu"`
	When               string      `json:"when"`
	Runs               []runResult `json:"runs"`
	SpeedupBatchBinary float64     `json:"speedup_batch_binary_vs_single_json,omitempty"`
	// SpeedupFrameVsHTTP compares batched framed-transport throughput
	// against HTTP batch-binary on identical traffic; the framed
	// transport's claim holds at >= 1.0 with no p99 regression.
	SpeedupFrameVsHTTP float64 `json:"speedup_batch_frame_vs_batch_binary,omitempty"`
	// PacedP99Ms is batch-binary's p99 while paced at 3x single-json's
	// measured query throughput; the traffic-plane claim holds when it
	// does not exceed BaseP99Ms (single-json's closed-loop p99).
	PacedP99Ms float64 `json:"batch_binary_3x_paced_p99_ms,omitempty"`
	BaseP99Ms  float64 `json:"single_json_p99_ms,omitempty"`
}

func findRun(runs []runResult, name string) *runResult {
	for i := range runs {
		if runs[i].Name == name {
			return &runs[i]
		}
	}
	return nil
}

// runLoad executes one measured run: warm-up (unmeasured), then
// conns workers each issuing requests — paced when qps > 0, closed
// loop otherwise — into per-worker histograms merged at the end.
func runLoad(ls loadSpec, rc runConfig, probe *tivclient.Client) (runResult, error) {
	copts := tivclient.Options{Binary: rc.binary}
	if rc.frame {
		if ls.frameAddr == "" {
			return runResult{}, fmt.Errorf("run %s needs a framed listener (none available)", rc.name)
		}
		copts.FrameAddr = ls.frameAddr
		copts.FrameConns = ls.conns
	}
	client := tivclient.New(ls.url, copts)
	defer client.Close()
	ctx := context.Background()

	if ls.warmup > 0 {
		warmCtx, cancel := context.WithTimeout(ctx, ls.warmup)
		runWorkers(warmCtx, client, ls, rc, ls.seed^0x5eed, nil)
		cancel()
	}
	before, errBefore := probe.Healthz(ctx)

	hists := make([]*stats.LogHist, ls.conns)
	for i := range hists {
		hists[i] = stats.NewLogHist(1e-6, 60)
	}
	runCtx, cancel := context.WithTimeout(ctx, ls.duration)
	start := time.Now()
	counts := runWorkers(runCtx, client, ls, rc, ls.seed, hists)
	elapsed := time.Since(start)
	cancel()

	merged := stats.NewLogHist(1e-6, 60)
	for _, h := range hists {
		merged.Merge(h)
	}
	res := runResult{
		Name:      rc.name,
		Batch:     rc.batch,
		Binary:    rc.binary,
		Requests:  counts.requests,
		Queries:   counts.queries,
		Errors:    counts.errors,
		DurationS: elapsed.Seconds(),
		MeanMs:    merged.Mean() * 1e3,
		P50Ms:     merged.Quantile(0.50) * 1e3,
		P99Ms:     merged.Quantile(0.99) * 1e3,
		P999Ms:    merged.Quantile(0.999) * 1e3,
		MaxMs:     merged.Max() * 1e3,
	}
	if s := elapsed.Seconds(); s > 0 {
		res.RequestsPerS = float64(counts.requests) / s
		res.QueriesPerS = float64(counts.queries) / s
	}
	if after, err := probe.Healthz(ctx); err == nil && errBefore == nil &&
		before.Cache != nil && after.Cache != nil {
		d := cacheDelta{
			Hits:   after.Cache.Hits - before.Cache.Hits,
			Misses: after.Cache.Misses - before.Cache.Misses,
		}
		if tot := d.Hits + d.Misses; tot > 0 {
			d.HitRate = float64(d.Hits) / float64(tot)
		}
		res.Cache = &d
	}
	if counts.requests == 0 {
		return res, fmt.Errorf("no requests completed (first error count: %d)", counts.errors)
	}
	if counts.errors*10 > counts.requests {
		return res, fmt.Errorf("error rate %.0f%% (%d/%d requests)",
			100*float64(counts.errors)/float64(counts.requests), counts.errors, counts.requests)
	}
	return res, nil
}

type loadCounts struct {
	requests uint64
	queries  uint64
	errors   uint64
}

// runWorkers fans the workload across ls.conns workers until ctx
// expires; hists[i] (when non-nil) receives worker i's latencies.
func runWorkers(ctx context.Context, client *tivclient.Client, ls loadSpec, rc runConfig, seed int64, hists []*stats.LogHist) loadCounts {
	var (
		wg       sync.WaitGroup
		requests atomic.Uint64
		queries  atomic.Uint64
		errs     atomic.Uint64
	)
	var interval time.Duration
	if ls.qps > 0 {
		interval = time.Duration(float64(time.Second) * float64(ls.conns) / ls.qps)
	}
	for w := 0; w < ls.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*1_000_003))
			var h *stats.LogHist
			if hists != nil {
				h = hists[w]
			}
			next := time.Now()
			for ctx.Err() == nil {
				if interval > 0 {
					// time.Sleep, not time.After: a timer channel per request
					// is measurable allocation pressure on small machines, and
					// the sleep is bounded by one pacing interval anyway.
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
					if ctx.Err() != nil {
						return
					}
				}
				t0 := time.Now()
				nq, err := issueOne(ctx, client, ls, rc, rng)
				lat := time.Since(t0)
				if ctx.Err() != nil {
					return // expiry mid-request is the harness, not the target
				}
				requests.Add(1)
				queries.Add(uint64(nq))
				if err != nil {
					// Errors are counted, not timed: a fast failure would
					// flatter the latency trajectory.
					errs.Add(1)
				} else if h != nil {
					h.Observe(lat.Seconds())
				}
			}
		}(w)
	}
	wg.Wait()
	return loadCounts{requests: requests.Load(), queries: queries.Load(), errors: errs.Load()}
}

// issueOne performs one request (a single-shot call or a batch) and
// returns how many queries it carried.
func issueOne(ctx context.Context, client *tivclient.Client, ls loadSpec, rc runConfig, rng *rand.Rand) (int, error) {
	if rc.batch > 1 {
		queries := make([]tivaware.Query, 0, rc.batch)
		for len(queries) < rc.batch {
			kind := ls.mix.pick(rng)
			if kind == "update" {
				// Writes are their own request even under batching: the
				// batch endpoint pins one read epoch.
				if err := issueUpdate(ctx, client, ls, rng); err != nil {
					return len(queries) + 1, err
				}
				continue
			}
			queries = append(queries, buildQuery(kind, ls, rng))
		}
		results, err := client.QueryBatch(ctx, queries)
		if err != nil {
			return len(queries), err
		}
		for _, r := range results {
			if r.Err != nil {
				return len(queries), r.Err
			}
		}
		return len(queries), nil
	}
	kind := ls.mix.pick(rng)
	if kind == "update" {
		return 1, issueUpdate(ctx, client, ls, rng)
	}
	// Single-shot: the kind's GET endpoint, or a framed batch of one.
	_, err := client.Query(ctx, buildQuery(kind, ls, rng))
	return 1, err
}

func issueUpdate(ctx context.Context, client *tivclient.Client, ls loadSpec, rng *rand.Rand) error {
	i, j := pair(rng, ls.n)
	_, err := client.ApplyUpdate(ctx, i, j, 1+99*rng.Float64())
	return err
}

func buildQuery(kind string, ls loadSpec, rng *rand.Rand) tivaware.Query {
	switch kind {
	case "rank":
		return tivaware.Query{Kind: tivaware.KindRank, Target: rng.Intn(ls.n), K: ls.rankK}
	case "closest":
		return tivaware.Query{Kind: tivaware.KindClosest, Target: rng.Intn(ls.n)}
	case "detour":
		i, j := pair(rng, ls.n)
		return tivaware.Query{Kind: tivaware.KindDetour, I: i, J: j}
	case "top":
		return tivaware.Query{Kind: tivaware.KindTop, K: ls.topK}
	case "delay":
		i, j := pair(rng, ls.n)
		return tivaware.Query{Kind: tivaware.KindDelay, I: i, J: j}
	default: // analysis
		return tivaware.Query{Kind: tivaware.KindAnalysis}
	}
}

func pair(rng *rand.Rand, n int) (int, int) {
	i := rng.Intn(n)
	j := rng.Intn(n - 1)
	if j >= i {
		j++
	}
	return i, j
}

func printRun(w io.Writer, r runResult) {
	line := fmt.Sprintf("tivload: %-14s %8.0f req/s %9.0f q/s  p50 %7.3fms  p99 %7.3fms  p999 %7.3fms",
		r.Name, r.RequestsPerS, r.QueriesPerS, r.P50Ms, r.P99Ms, r.P999Ms)
	if r.Errors > 0 {
		line += fmt.Sprintf("  errors %d", r.Errors)
	}
	if r.Cache != nil {
		line += fmt.Sprintf("  cache hit %.0f%%", 100*r.Cache.HitRate)
	}
	fmt.Fprintln(w, line)
}
