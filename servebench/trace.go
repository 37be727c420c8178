package main

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tivaware/internal/tiv"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivd"
	"tivaware/internal/tivframe"
	"tivaware/internal/tivwire"
)

// Span layers, outermost first. A request's client span contains the
// front handler span, which contains the front backend span, which (on
// a gateway) contains the shard handler spans it scattered.
const (
	layerClient  = "client"  // tivclient.Client.QueryBatch / ApplyUpdate
	layerHandler = "handler" // front tivframe.Handler.ServeFrame or http.Handler.ServeHTTP
	layerBackend = "backend" // front tivd.Backend.QueryBatch / ApplyBatch
	layerShard   = "shard"   // shard tivframe.Handler.ServeFrame, called by the gateway
)

// interval is a span's extent in nanoseconds since the tracer's base.
type interval struct{ start, end int64 }

func (iv interval) dur() int64 { return iv.end - iv.start }

type span struct {
	req   int64
	layer string
	interval
}

// tracer records spans in memory while on. The traced run keeps one
// request outstanding at a time and sets req before each, so every
// span recorded meanwhile belongs to that request.
type tracer struct {
	on   atomic.Bool
	req  atomic.Int64
	base time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// recorded returns a copy of the spans recorded so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) record(layer string, start int64) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{t.req.Load(), layer, interval{start, end}})
	t.mu.Unlock()
}

// tracedBackend times the front backend's query and write calls. It
// embeds tivd.Backend and overrides only QueryBatch and ApplyBatch.
type tracedBackend struct {
	tivd.Backend
	t *tracer
}

func (b tracedBackend) QueryBatch(ctx context.Context, queries []tivaware.Query) ([]tivaware.Result, uint64, error) {
	if !b.t.on.Load() {
		return b.Backend.QueryBatch(ctx, queries)
	}
	start := b.t.now()
	res, epoch, err := b.Backend.QueryBatch(ctx, queries)
	b.t.record(layerBackend, start)
	return res, epoch, err
}

func (b tracedBackend) ApplyBatch(ctx context.Context, updates []tiv.Update) (tiv.ChangeSet, error) {
	if !b.t.on.Load() {
		return b.Backend.ApplyBatch(ctx, updates)
	}
	start := b.t.now()
	cs, err := b.Backend.ApplyBatch(ctx, updates)
	b.t.record(layerBackend, start)
	return cs, err
}

// tracedFrames times a frame handler's query and write requests.
// Health pings (the gateway probes its shards in the background) are
// not spans of the request being traced.
type tracedFrames struct {
	h     tivframe.Handler
	t     *tracer
	layer string
}

func (f tracedFrames) ServeFrame(ctx context.Context, msg any) any {
	switch msg.(type) {
	case *tivwire.BatchRequest, *tivwire.UpdateRequest:
		if f.t.on.Load() {
			start := f.t.now()
			resp := f.h.ServeFrame(ctx, msg)
			f.t.record(f.layer, start)
			return resp
		}
	}
	return f.h.ServeFrame(ctx, msg)
}

// tracedHTTP times the front HTTP handler's query and write requests.
func tracedHTTP(h http.Handler, t *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || (r.URL.Path != "/v1/batch" && r.URL.Path != "/v1/update") {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(layerHandler, start)
	})
}

// covered returns how much of parent the union of children covers.
// Children may overlap one another (a gateway scatters to its shards
// concurrently) and may stick out of the parent; only the part inside
// the parent counts, and overlapping time counts once.
func covered(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].start < clipped[b].start })
	var total, curStart, curEnd int64
	open := false
	for _, c := range clipped {
		if open && c.start <= curEnd {
			curEnd = max(curEnd, c.end)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = c.start, c.end, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.dur() - covered(parent, children)
}

// requestLayers is one traced request's per-layer breakdown, in
// nanoseconds. A layer the request did not reach (a cache hit has no
// backend span) contributes 0.
type requestLayers struct {
	client      int64
	callSelf    int64 // client span minus front handler spans
	handler     int64 // front handler span(s)
	handlerSelf int64 // front handler minus backend spans
	backend     int64 // front backend span(s)
	backendSelf int64 // backend minus shard spans: the gateway's own scatter and merge
	shardCover  int64 // union of shard spans inside the backend span
	shardCalls  int
	shardSpans  []int64
	reached     bool // the request reached the front backend
}

// breakdown groups spans by request and derives each request's layer
// times. Requests without exactly one client span are dropped.
func breakdown(spans []span) []requestLayers {
	byReq := map[int64]map[string][]interval{}
	for _, s := range spans {
		m := byReq[s.req]
		if m == nil {
			m = map[string][]interval{}
			byReq[s.req] = m
		}
		m[s.layer] = append(m[s.layer], s.interval)
	}
	ids := make([]int64, 0, len(byReq))
	for id := range byReq {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	var out []requestLayers
	for _, id := range ids {
		m := byReq[id]
		if len(m[layerClient]) != 1 {
			continue
		}
		c := m[layerClient][0]
		r := requestLayers{client: c.dur()}
		r.callSelf = selfTime(c, m[layerHandler])
		for _, h := range m[layerHandler] {
			r.handler += h.dur()
			r.handlerSelf += selfTime(h, m[layerBackend])
		}
		for _, b := range m[layerBackend] {
			r.reached = true
			r.backend += b.dur()
			r.backendSelf += selfTime(b, m[layerShard])
			r.shardCover += covered(b, m[layerShard])
		}
		for _, s := range m[layerShard] {
			r.shardCalls++
			r.shardSpans = append(r.shardSpans, s.dur())
		}
		out = append(out, r)
	}
	return out
}

// skew is the slowest minus the fastest of sibling spans.
func skew(durs []int64) int64 {
	if len(durs) < 2 {
		return 0
	}
	lo, hi := durs[0], durs[0]
	for _, d := range durs[1:] {
		lo, hi = min(lo, d), max(hi, d)
	}
	return hi - lo
}
