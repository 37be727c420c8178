package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"time"

	"tivaware/internal/tiv"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivd"
	"tivaware/internal/tivframe"
	"tivaware/internal/tivshard"
	"tivaware/internal/tivwire"
)

// Shares of --seconds spent by the traced run's phases.
const (
	serviceShare  = 0.25 // one-query Service replay
	untracedShare = 0.30 // untraced replay through the in-process stack; the traced replay repeats its requests
	codecBudget   = 50 * time.Millisecond
	analyzeRuns   = 5
	ladderTol     = 0.25 // blocking-path median self times must add up to the median client latency within 25%
)

// stack is the serving plane wired in-process the way cmd/tivd wires
// it, with tracing decorators at each layer boundary.
type stack struct {
	client  *tivclient.Client
	shards  []*tivclient.Client // HTTP clients to each shard, for cache counters
	closers []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// serve serves h over HTTP and, when fh is non-nil, fh over frames,
// both on loopback listeners the stack closes.
func (s *stack) serve(h http.Handler, fh tivframe.Handler) (httpURL, frameAddr string, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		_ = hs.Serve(ln) // returns ErrServerClosed on Close
		close(done)
	}()
	s.closers = append(s.closers, func() { hs.Close(); <-done })
	httpURL = "http://" + ln.Addr().String()
	if fh == nil {
		return httpURL, "", nil
	}
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	fs := tivframe.NewServer(fh, tivframe.Options{})
	fdone := make(chan struct{})
	go func() {
		_ = fs.Serve(fln) // returns ErrServerClosed on Close
		close(fdone)
	}()
	s.closers = append(s.closers, func() { fs.Abort(); <-fdone })
	return httpURL, "tcp://" + fln.Addr().String(), nil
}

// buildStack wires the workload's serving plane in-process: the same
// constructors cmd/tivd calls, loopback listeners, and the tracing
// decorators around the front handler, the front backend and (on a
// gateway) every shard's frame handler.
func buildStack(ctx context.Context, cfg runConfig, t *tracer) (*stack, error) {
	w := cfg.w
	s := &stack{}
	frontOpts := tivd.Options{}
	if w.cacheOff {
		frontOpts.CacheEntries = -1
	}
	var backend tivd.Backend
	if w.shards == 0 {
		svc, err := tivaware.NewFromMatrix(cfg.m.Clone(), tivaware.Options{Workers: cfg.nproc, Live: w.live})
		if err != nil {
			return nil, err
		}
		backend = tivd.ServiceBackend(svc)
	} else {
		var urls, frames []string
		for k := 0; k < w.shards; k++ {
			svc, err := tivaware.NewFromMatrix(cfg.m.Clone(), tivaware.Options{Workers: cfg.nproc})
			if err != nil {
				s.close()
				return nil, err
			}
			srv, err := tivd.New(svc, tivd.Options{})
			if err != nil {
				s.close()
				return nil, err
			}
			u, f, err := s.serve(srv.Handler(), tracedFrames{srv.FrameHandler(), t, layerShard})
			if err != nil {
				s.close()
				return nil, err
			}
			s.closers = append(s.closers, srv.Close)
			urls, frames = append(urls, u), append(frames, f)
			sc := tivclient.New(u, tivclient.Options{Binary: true})
			s.shards = append(s.shards, sc)
		}
		gw, err := tivshard.New(ctx, urls, tivshard.Options{FrameAddrs: frames})
		if err != nil {
			s.close()
			return nil, err
		}
		s.closers = append(s.closers, gw.Close)
		backend = gw.Backend()
	}
	front, err := tivd.NewBackend(tracedBackend{backend, t}, frontOpts)
	if err != nil {
		s.close()
		return nil, err
	}
	s.closers = append(s.closers, front.Close)
	var u, f string
	if w.frames {
		u, f, err = s.serve(front.Handler(), tracedFrames{front.FrameHandler(), t, layerHandler})
	} else {
		u, f, err = s.serve(tracedHTTP(front.Handler(), t), nil)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	tr := &http.Transport{MaxConnsPerHost: cfg.nproc, MaxIdleConnsPerHost: cfg.nproc}
	opts := tivclient.Options{HTTPClient: &http.Client{Transport: tr}, Binary: true, RequestTimeout: failLatency}
	if w.frames {
		opts.FrameAddr, opts.FrameConns = f, cfg.nproc
	}
	s.client = tivclient.New(u, opts)
	s.closers = append(s.closers, func() {
		s.client.Close()
		tr.CloseIdleConnections()
	})
	return s, nil
}

// cacheCounters sums hits and misses over the clients' daemons.
func cacheCounters(ctx context.Context, cs []*tivclient.Client) (hits, misses uint64, err error) {
	for _, c := range cs {
		h, err := c.Healthz(ctx)
		if err != nil {
			return 0, 0, err
		}
		if h.Cache != nil {
			hits += h.Cache.Hits
			misses += h.Cache.Misses
		}
	}
	return hits, misses, nil
}

func hitRatio(h0, m0, h1, m1 uint64) float64 {
	if tot := (h1 - h0) + (m1 - m0); tot > 0 {
		return float64(h1-h0) / float64(tot)
	}
	return 0
}

// replay sends ops one at a time through the stack and returns each
// request's latency in microseconds. With the tracer on, every request
// gets a client span; capture, if non-nil, sees each answered request.
func replay(ctx context.Context, s *stack, t *tracer, ops []op, capture func(o *op, res []tivaware.Result), tl *tally) ([]float64, []sampled) {
	lat := make([]float64, len(ops))
	samples := make([]sampled, len(ops))
	for i := range ops {
		o := &ops[i]
		t.req.Store(int64(i + 1))
		start := t.now()
		res, err := send(ctx, s.client, o)
		if t.on.Load() {
			t.record(layerClient, start)
		}
		lat[i] = float64(t.now()-start) / 1e3
		if err != nil {
			tl.add(o.weight(), o.weight())
			continue
		}
		tl.add(o.weight(), 0)
		samples[i] = sampled{queries: o.queries, results: res}
		if capture != nil {
			capture(o, res)
		}
	}
	return lat, samples
}

// runTraced is the per-layer run: the same layers in-process, one
// request outstanding at a time, timed at each layer's public calls.
func runTraced(ctx context.Context, cfg runConfig) (outcome, error) {
	w := cfg.w
	var tl tally
	mets := map[string]metric{}
	rep := map[string]any{}
	us := func(name string, ns float64) { mets[name] = metric{ns / 1e3, "us"} }

	// tiv: the batch analysis a daemon runs before its first answer.
	eng := tiv.NewEngine(tiv.Options{Workers: cfg.nproc})
	var an []float64
	for r := 0; r < analyzeRuns; r++ {
		t0 := time.Now()
		eng.Analyze(cfg.m)
		an = append(an, ms(time.Since(t0)))
	}
	mets["tiv.analyze_ms"] = metric{newDist(an).median(), "ms"}

	// Pre-generate the stream every phase replays.
	deck := newPairDeck(w.n, cfg.seed^0x5eed)
	st := newStream(w, cfg.seed*7919+1, deck)
	maxOps := int(w.rate * cfg.seconds.Seconds())
	ops := make([]op, maxOps)
	for i := range ops {
		ops[i] = st.next()
	}

	// tivaware: one-query Service.QueryBatch per query, ApplyUpdate per
	// write, and the first View after a write (the epoch build).
	if err := serviceLadder(ctx, cfg, ops, scaled(cfg.seconds, serviceShare), mets, rep); err != nil {
		return outcome{}, err
	}

	// The stack, untraced: how many requests fit the budget, and their
	// latency without tracing.
	t := newTracer()
	plain, err := buildStack(ctx, cfg, t)
	if err != nil {
		return outcome{}, err
	}
	deadline := time.Now().Add(scaled(cfg.seconds, untracedShare))
	n := 0
	var untraced []float64
	for n < len(ops) && time.Now().Before(deadline) {
		end := min(n+64, len(ops))
		lat, _ := replay(ctx, plain, t, ops[n:end], nil, &tl)
		untraced = append(untraced, lat...)
		n = end
	}
	plain.close()

	// The same requests on a fresh stack, traced.
	traced, err := buildStack(ctx, cfg, t)
	if err != nil {
		return outcome{}, err
	}
	defer traced.close()
	frontH0, frontM0, err := cacheCounters(ctx, []*tivclient.Client{traced.client})
	if err != nil {
		return outcome{}, err
	}
	shardH0, shardM0, err := cacheCounters(ctx, traced.shards)
	if err != nil {
		return outcome{}, err
	}
	msgs := map[string][]any{}
	var writes writeLog
	capture := func(o *op, res []tivaware.Result) {
		if o.update {
			writes.add(o)
			keep(msgs, "update_request", &tivwire.UpdateRequest{Updates: []tivwire.Update{{I: o.i, J: o.j, RTT: o.rtt}}})
			return
		}
		keep(msgs, "batch_request", &tivwire.BatchRequest{Queries: tivwire.FromQueries(o.queries)})
		wire := make([]tivwire.Result, len(res))
		for k, r := range res {
			wire[k] = tivwire.FromResult(o.queries[k], r, 1, func(err error) tivwire.Error { return tivwire.Error{Error: err.Error()} })
		}
		keep(msgs, "batch_response", &tivwire.BatchResponse{Epoch: 1, Results: wire})
	}
	t.on.Store(true)
	tracedLat, samples := replay(ctx, traced, t, ops[:n], capture, &tl)
	t.on.Store(false)
	frontH1, frontM1, err := cacheCounters(ctx, []*tivclient.Client{traced.client})
	if err != nil {
		return outcome{}, err
	}
	shardH1, shardM1, err := cacheCounters(ctx, traced.shards)
	if err != nil {
		return outcome{}, err
	}
	mets["tivd.cache_hit_ratio.front"] = metric{hitRatio(frontH0, frontM0, frontH1, frontM1), "ratio"}
	mets["tivd.cache_hit_ratio.shards"] = metric{hitRatio(shardH0, shardM0, shardH1, shardM1), "ratio"}

	// Layer self times from the spans.
	layers := breakdown(t.recorded())
	if len(layers) == 0 {
		return outcome{}, fmt.Errorf("traced run recorded no requests")
	}
	var client, callSelf, handler, handlerSelf, backendSelf, shardCover []float64
	var gwSelf, shardSpan, shardSkew, calls []float64
	var sumClient, sumLadder float64
	for _, r := range layers {
		client = append(client, float64(r.client))
		callSelf = append(callSelf, float64(r.callSelf))
		handler = append(handler, float64(r.handler))
		handlerSelf = append(handlerSelf, float64(r.handlerSelf))
		backendSelf = append(backendSelf, float64(r.backendSelf))
		shardCover = append(shardCover, float64(r.shardCover))
		if w.shards > 0 && r.reached {
			gwSelf = append(gwSelf, float64(r.backendSelf))
			calls = append(calls, float64(r.shardCalls))
			for _, d := range r.shardSpans {
				shardSpan = append(shardSpan, float64(d))
			}
			if len(r.shardSpans) > 1 {
				shardSkew = append(shardSkew, float64(skew(r.shardSpans)))
			}
		}
		sumClient += float64(r.client)
		sumLadder += float64(r.callSelf + r.handlerSelf + r.backendSelf + r.shardCover)
	}
	us("tivclient.call_self_us", newDist(callSelf).median())
	us("tivd.handler_us", newDist(handler).median())
	us("tivd.self_us", newDist(handlerSelf).median())
	us("tivshard.gateway_self_us", newDist(gwSelf).median())
	us("tivshard.shard_span_us", newDist(shardSpan).median())
	us("tivshard.shard_skew_us", newDist(shardSkew).median())
	mets["tivshard.shard_calls_per_query"] = metric{newDist(calls).mean(), "count"}

	// The ladder: the medians of the blocking path's self times — client
	// self, front handler self, backend self (a service's own work, or a
	// gateway's scatter and merge) and the union of the shard spans the
	// gateway waited on — against the median client span.
	clientMed := newDist(client).median()
	ladder := newDist(callSelf).median() + newDist(handlerSelf).median() +
		newDist(backendSelf).median() + newDist(shardCover).median()
	gap := (ladder - clientMed) / clientMed
	tracedMed, untracedMed := newDist(tracedLat).median(), newDist(untraced).median()
	mets["trace.client_us"] = metric{clientMed / 1e3, "us"}
	mets["trace.ladder_gap"] = metric{gap, "ratio"}
	mets["trace.overhead_us"] = metric{tracedMed - untracedMed, "us"}
	rep["traced_requests"] = len(layers)
	rep["untraced_median_us"] = untracedMed
	rep["traced_median_us"] = tracedMed
	rep["ladder_median_sum_us"] = ladder / 1e3
	rep["ladder_tolerance"] = ladderTol
	rep["ladder_within_tolerance"] = math.Abs(gap) <= ladderTol
	// Means add up exactly when every span nests in its parent, so a
	// non-zero attribution gap means a span landed on the wrong request.
	rep["attribution_gap"] = (sumLadder - sumClient) / sumClient

	// tivwire: the captured messages through the binary codec.
	for _, kind := range []string{"batch_request", "batch_response", "update_request"} {
		enc, dec, size, allocs := codecCost(msgs[kind])
		mets["tivwire.encode_ns."+kind] = metric{enc, "ns"}
		mets["tivwire.decode_ns."+kind] = metric{dec, "ns"}
		mets["tivwire.bytes."+kind] = metric{size, "B"}
		mets["tivwire.allocs."+kind] = metric{allocs, "count"}
		rep["codec_messages."+kind] = len(msgs[kind])
	}

	// Correctness of what the traced stack answered.
	ref, err := newReference(cfg)
	if err != nil {
		return outcome{}, err
	}
	var checked int
	if w.live {
		checked, err = checkLive(ctx, cfg, traced.client, ref, samples, &writes, &tl)
	} else {
		checked, err = checkStatic(ctx, ref, thin(samples, checkSamples), &tl)
	}
	if err != nil {
		return outcome{}, err
	}
	rep["checked_ops"] = checked
	return outcome{attempted: tl.attempted, failed: tl.failed, metrics: mets, report: rep}, nil
}

const maxCaptured = 512

func keep(msgs map[string][]any, kind string, m any) {
	if len(msgs[kind]) < maxCaptured {
		msgs[kind] = append(msgs[kind], m)
	}
}

// thin keeps about k evenly spaced samples.
func thin(s []sampled, k int) []sampled {
	every := max(1, len(s)/k)
	var out []sampled
	for i := 0; i < len(s); i += every {
		out = append(out, s[i])
	}
	return out
}

// serviceLadder replays ops against a fresh tivaware.Service: every
// query as a one-query QueryBatch, every write as ApplyUpdate followed
// by the View that builds the next epoch.
func serviceLadder(ctx context.Context, cfg runConfig, ops []op, budget time.Duration, mets map[string]metric, rep map[string]any) error {
	svc, err := tivaware.NewFromMatrix(cfg.m.Clone(), tivaware.Options{Workers: cfg.nproc, Live: cfg.w.live})
	if err != nil {
		return err
	}
	t0 := time.Now()
	v, err := svc.View(ctx)
	if err != nil {
		return err
	}
	initialBuild := time.Since(t0)
	seq0 := v.Seq()
	perKind := map[tivaware.QueryKind][]float64{}
	var applies, builds []float64
	deadline := time.Now().Add(budget)
	done := 0
	for i := range ops {
		if time.Now().After(deadline) {
			break
		}
		o := &ops[i]
		done++
		if o.update {
			t0 := time.Now()
			if _, err := svc.ApplyUpdate(o.i, o.j, o.rtt); err != nil {
				return err
			}
			applies = append(applies, float64(time.Since(t0)))
			t0 = time.Now()
			if _, err := svc.View(ctx); err != nil {
				return err
			}
			builds = append(builds, float64(time.Since(t0)))
			continue
		}
		for _, q := range o.queries {
			t0 := time.Now()
			res, err := svc.QueryBatch(ctx, []tivaware.Query{q})
			el := time.Since(t0)
			if err != nil {
				return err
			}
			if res[0].Err != nil {
				return fmt.Errorf("service %s query: %w", q.Kind, res[0].Err)
			}
			perKind[q.Kind] = append(perKind[q.Kind], float64(el))
		}
	}
	v, err = svc.View(ctx)
	if err != nil {
		return err
	}
	for _, k := range []tivaware.QueryKind{tivaware.KindRank, tivaware.KindClosest, tivaware.KindDetour, tivaware.KindTop, tivaware.KindDelay} {
		mets["tivaware.query_us."+string(k)] = metric{newDist(perKind[k]).median() / 1e3, "us"}
		rep["service_queries."+string(k)] = len(perKind[k])
	}
	mets["tivaware.apply_update_us"] = metric{newDist(applies).median() / 1e3, "us"}
	if len(builds) == 0 {
		// A static service builds one epoch, before its first answer.
		builds = []float64{float64(initialBuild)}
	}
	mets["tivaware.epoch_build_us"] = metric{newDist(builds).median() / 1e3, "us"}
	mets["tivaware.epochs_per_kop"] = metric{float64(v.Seq()-seq0) * 1000 / float64(max(done, 1)), "count"}
	return nil
}

// codecCost measures the binary codec on msgs: mean encode and decode
// nanoseconds per message (median of five passes), mean encoded bytes,
// and heap allocations per encode+decode.
func codecCost(msgs []any) (encNs, decNs, size, allocs float64) {
	if len(msgs) == 0 {
		return 0, 0, 0, 0
	}
	frames := make([][]byte, len(msgs))
	total := 0
	for i, m := range msgs {
		b, err := tivwire.MarshalBinary(m)
		if err != nil {
			return 0, 0, 0, 0
		}
		frames[i] = b
		total += len(b)
	}
	fresh := func(i int) any {
		switch msgs[i].(type) {
		case *tivwire.BatchRequest:
			return new(tivwire.BatchRequest)
		case *tivwire.BatchResponse:
			return new(tivwire.BatchResponse)
		default:
			return new(tivwire.UpdateRequest)
		}
	}
	// Every message marshalled once above, so the timed encodes and
	// decodes below cannot fail.
	var buf []byte
	pass := func(decode bool) float64 {
		reps := 0
		t0 := time.Now()
		for time.Since(t0) < codecBudget/10 {
			for i := range msgs {
				if decode {
					_ = tivwire.UnmarshalBinaryInto(frames[i], fresh(i))
				} else {
					buf, _ = tivwire.AppendBinary(buf[:0], msgs[i])
				}
			}
			reps++
		}
		return float64(time.Since(t0)) / float64(reps*len(msgs))
	}
	var enc, dec []float64
	for r := 0; r < 5; r++ {
		enc = append(enc, pass(false))
		dec = append(dec, pass(true))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range msgs {
		buf, _ = tivwire.AppendBinary(buf[:0], msgs[i])
		_ = tivwire.UnmarshalBinaryInto(frames[i], fresh(i))
	}
	runtime.ReadMemStats(&m1)
	return newDist(enc).median(), newDist(dec).median(), float64(total) / float64(len(msgs)),
		float64(m1.Mallocs-m0.Mallocs) / float64(len(msgs))
}
