// Package tivd implements the HTTP server behind the tivd daemon:
// the first network surface of the TIV-aware service layer. It
// exposes a tivaware.Service over HTTP/JSON so remote clients query
// triangle-violation state instead of recomputing O(N³) analyses
// locally — the deployment shape the distributed-triangle literature
// assumes (nodes query triangle state over the network).
//
// Endpoints (wire types in internal/tivwire; client in
// internal/tivclient):
//
//	GET  /healthz        liveness + epoch/version counters
//	GET  /v1/rank        ?target=&k=&penalty=&exclude=&candidates=&mod=&rem=
//	GET  /v1/closest     ?target=&penalty=&exclude=&candidates=&mod=&rem=
//	GET  /v1/detour      ?i=&j=&mod=&rem=
//	GET  /v1/top         ?k=&mod=&rem=
//	GET  /v1/delay       ?i=&j=
//	GET  /v1/analysis    aggregate triangle statistics
//	POST /v1/update      apply edge measurements (live services only)
//	POST /v1/batch       answer a vector of typed queries in one round trip
//	GET  /v1/subscribe   SSE stream of violated-edge change sets
//
// The optional mod/rem pair restricts a query to one residue class of
// node ids — the scatter primitive a tivshard gateway uses to fan one
// query out over its shards (see tivaware.Scatter). The
// server itself serves any Backend: an in-process tivaware.Service or
// a tivshard.Gateway, so gateways re-export this exact protocol.
//
// Every endpoint speaks two codecs: JSON (the default) and the
// compact binary framing (tivwire.BinaryContentType), negotiated per
// request — Accept selects the response codec, Content-Type the
// request-body codec. SSE streams stay JSON (they are line-oriented
// by design). /v1/batch answers all its queries against one pinned
// epoch, and read queries flow through an epoch-keyed hot-query cache
// (see cache.go); both are transparent at the protocol level.
//
// Queries run lock-free against the service's current epoch, so the
// daemon serves concurrent requests at full GOMAXPROCS without a
// global lock; updates serialize through the service's copy-on-write
// path like any other writer.
package tivd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tivaware/internal/tiv"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivwire"
)

// Options configures a Server. The zero value is valid.
type Options struct {
	// MaxRankK caps the k accepted by /v1/rank and /v1/top so one
	// request cannot demand an O(N²)-sized response; zero means 4096.
	MaxRankK int
	// SubscribeBuffer is the per-connection event buffer. A subscriber
	// that falls further behind than this has its connection closed
	// (dropping events silently would hand the client a torn picture
	// of the violated-edge set). Zero means 256.
	SubscribeBuffer int
	// MaxBatch caps the query count of one POST /v1/batch request;
	// zero means 256.
	MaxBatch int
	// CacheEntries bounds the epoch-keyed query cache (entries, not
	// bytes; see cache.go). Zero means 4096; negative disables the
	// cache entirely.
	CacheEntries int
}

func (o Options) maxRankK() int {
	if o.MaxRankK > 0 {
		return o.MaxRankK
	}
	return 4096
}

func (o Options) subscribeBuffer() int {
	if o.SubscribeBuffer > 0 {
		return o.SubscribeBuffer
	}
	return 256
}

func (o Options) maxBatch() int {
	if o.MaxBatch > 0 {
		return o.MaxBatch
	}
	return 256
}

func (o Options) cacheEntries() int {
	if o.CacheEntries > 0 {
		return o.CacheEntries
	}
	if o.CacheEntries < 0 {
		return 0
	}
	return 4096
}

// Server serves one Backend — an in-process tivaware.Service or a
// tivshard.Gateway — over HTTP. Construct with New or NewBackend,
// mount via Handler.
type Server struct {
	b     Backend
	opts  Options
	mux   *http.ServeMux
	cache *queryCache // nil when disabled

	// Subscriber bookkeeping so Close can end SSE streams.
	subMu     sync.Mutex
	subSeq    int
	subCancel map[int]context.CancelFunc
	closed    atomic.Bool
}

// New builds a server over an in-process service.
func New(svc *tivaware.Service, opts Options) (*Server, error) {
	if svc == nil {
		return nil, fmt.Errorf("tivd: nil service")
	}
	return NewBackend(ServiceBackend(svc), opts)
}

// NewBackend builds a server over any Backend (tivshard gateways use
// this path); the wire surface is identical either way.
func NewBackend(b Backend, opts Options) (*Server, error) {
	if b == nil {
		return nil, fmt.Errorf("tivd: nil backend")
	}
	s := &Server{b: b, opts: opts, mux: http.NewServeMux(), subCancel: make(map[int]context.CancelFunc)}
	if n := opts.cacheEntries(); n > 0 {
		s.cache = newQueryCache(n)
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/rank", s.handleQuery(s.parseRank))
	s.mux.HandleFunc("/v1/closest", s.handleQuery(parseClosest))
	s.mux.HandleFunc("/v1/detour", s.handleQuery(parseDetour))
	s.mux.HandleFunc("/v1/top", s.handleQuery(s.parseTop))
	s.mux.HandleFunc("/v1/delay", s.handleQuery(parseDelay))
	s.mux.HandleFunc("/v1/analysis", s.handleQuery(parseAnalysis))
	s.mux.HandleFunc("/v1/update", s.handleUpdate)
	s.mux.HandleFunc("/v1/subscribe", s.handleSubscribe)
	return s, nil
}

// Handler returns the HTTP handler to mount.
func (s *Server) Handler() http.Handler { return s.mux }

// Close ends all active subscription streams. In-flight plain
// requests finish on their own (delegate their lifecycle to
// http.Server.Shutdown).
func (s *Server) Close() {
	s.closed.Store(true)
	s.subMu.Lock()
	cancels := make([]context.CancelFunc, 0, len(s.subCancel))
	for _, c := range s.subCancel {
		cancels = append(cancels, c)
	}
	s.subMu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// acceptsBinary reports whether the request negotiated the compact
// binary response framing via Accept.
func acceptsBinary(r *http.Request) bool {
	return r != nil && strings.Contains(r.Header.Get("Accept"), tivwire.BinaryContentType)
}

// sendsBinary reports whether the request body is binary-framed.
func sendsBinary(r *http.Request) bool {
	return strings.HasPrefix(r.Header.Get("Content-Type"), tivwire.BinaryContentType)
}

// writeMsg writes one wire message in the codec the request
// negotiated: binary when Accept names it, JSON otherwise. Error
// envelopes flow through here too, so a binary client never has to
// parse JSON mid-stream. The body is encoded before the status line
// is sent, so a message that cannot be encoded (a non-finite score
// has no JSON form) is answered with the typed internal envelope,
// never a 200 with an empty body.
func writeMsg(w http.ResponseWriter, r *http.Request, status int, v any) {
	body, contentType, err := encodeMsg(r, v)
	if err != nil {
		status = statusForCode(tivwire.CodeInternal)
		// An envelope holds only strings and a finite float, so it
		// always encodes.
		body, contentType, _ = encodeMsg(r, envelope(tivwire.CodeInternal, fmt.Errorf("encoding response: %v", err)))
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means the client is gone
}

// encodeMsg renders v in the negotiated codec, falling back to JSON
// for messages the binary framing does not cover.
func encodeMsg(r *http.Request, v any) ([]byte, string, error) {
	if acceptsBinary(r) {
		if b, err := tivwire.MarshalBinary(v); err == nil {
			return b, tivwire.BinaryContentType, nil
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), "application/json", nil
}

// writeError writes the structured error envelope: a human-readable
// message plus the machine-readable taxonomy code (tivwire.Code*).
// Retryable codes carry the default retry-after hint.
func writeError(w http.ResponseWriter, r *http.Request, status int, code string, format string, args ...any) {
	writeMsg(w, r, status, envelope(code, fmt.Errorf(format, args...)))
}

// envelope builds the wire error envelope for one taxonomy code.
func envelope(code string, err error) tivwire.Error {
	e := tivwire.Error{Error: err.Error(), Code: code}
	if tivwire.RetryableCode(code) {
		e.RetryAfter = defaultRetryAfter
	}
	return e
}

// reqError is a daemon-born error that already knows its taxonomy
// code: request-decode failures (bad_request) and broken backend
// contracts (internal). errorEnvelope routes it by WireCode and the
// envelope message is exactly the underlying error text, so retyping
// a bare fmt.Errorf into a reqError never changes what the client
// reads — it only proves the code was chosen rather than defaulted.
type reqError struct {
	code string
	err  error
}

func (e *reqError) Error() string    { return e.err.Error() }
func (e *reqError) Unwrap() error    { return e.err }
func (e *reqError) WireCode() string { return e.code }

// badRequestf builds the client-fault taxonomy error for a malformed
// or out-of-range request parameter.
func badRequestf(format string, args ...any) error {
	return &reqError{code: tivwire.CodeBadRequest, err: fmt.Errorf(format, args...)}
}

// internalErrorf builds the daemon-fault taxonomy error for a broken
// backend contract.
func internalErrorf(format string, args ...any) error {
	return &reqError{code: tivwire.CodeInternal, err: fmt.Errorf(format, args...)}
}

// errNotLive is the typed refusal a read-only daemon answers updates
// with.
func errNotLive() error {
	return &reqError{code: tivwire.CodeNotLive, err: errors.New("updates require a live service (tivd -live)")}
}

// defaultRetryAfter is the retry hint (seconds) attached to every
// retryable error envelope: long enough for a transient stall to
// clear, short enough that clients re-probe a recovering backend
// promptly.
const defaultRetryAfter = 0.5

// errorEnvelope maps a backend error onto an HTTP status and taxonomy
// envelope. Errors that carry their own code (via WireCode — gateway
// backends classify shard failures) win; context expiry means the
// backend could not answer in time (unavailable, retryable);
// everything else the query path produces is a validation failure —
// the client's fault. Gateway backends wrap shard errors, so the
// context check must unwrap.
func errorEnvelope(err error) (int, tivwire.Error) {
	var wc interface{ WireCode() string }
	if errors.As(err, &wc) {
		code := wc.WireCode()
		return statusForCode(code), envelope(code, err)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable, envelope(tivwire.CodeUnavailable, err)
	}
	return http.StatusBadRequest, envelope(tivwire.CodeBadRequest, err)
}

// resultEnvelope is errorEnvelope specialized per query kind: an
// analysis failure without its own code means the backend's replicas
// disagree (or the deployment cannot produce exact counts) — the
// wire's diverged conflict, not a bad request.
func resultEnvelope(kind tivaware.QueryKind, err error) (int, tivwire.Error) {
	if kind == tivaware.KindAnalysis {
		var wc interface{ WireCode() string }
		if !errors.As(err, &wc) && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return http.StatusConflict, envelope(tivwire.CodeDiverged, err)
		}
	}
	return errorEnvelope(err)
}

// statusForCode maps a taxonomy code to its HTTP status.
func statusForCode(code string) int {
	switch code {
	case tivwire.CodeUnavailable, tivwire.CodeInternal:
		return http.StatusServiceUnavailable
	case tivwire.CodeDiverged, tivwire.CodeNotLive:
		return http.StatusConflict
	case tivwire.CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	}
	return http.StatusBadRequest
}

// serviceError writes a backend error through the taxonomy mapping.
func serviceError(w http.ResponseWriter, r *http.Request, err error) {
	status, e := errorEnvelope(err)
	writeMsg(w, r, status, e)
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeError(w, r, http.StatusMethodNotAllowed, tivwire.CodeMethodNotAllowed, "method %s not allowed", r.Method)
		return false
	}
	return true
}

func intParam(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequestf("parameter %s: %v", name, err)
	}
	return v, nil
}

func floatParam(r *http.Request, name string, def float64) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, badRequestf("parameter %s: %v", name, err)
	}
	return v, nil
}

// handleQuery serves one GET query endpoint: parse decodes the
// request parameters into the Query the endpoint names (a failure is
// the client's fault), and serveQuery answers it through the same
// path POST /v1/batch takes.
func (s *Server) handleQuery(parse func(*http.Request) (tivaware.Query, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !requireMethod(w, r, http.MethodGet) {
			return
		}
		q, err := parse(r)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, tivwire.CodeBadRequest, "%v", err)
			return
		}
		s.serveQuery(w, r, q)
	}
}

// kParam decodes an explicit result bound, which must lie in
// [1, MaxRankK]; def applies when the parameter is absent.
func (s *Server) kParam(r *http.Request, def int) (int, error) {
	k, err := intParam(r, "k", def)
	if err != nil {
		return 0, err
	}
	if max := s.opts.maxRankK(); k <= 0 || k > max {
		return 0, badRequestf("parameter k: %d outside [1,%d]", k, max)
	}
	return k, nil
}

// selectionParams decodes the parameters rank and closest share:
// penalty, the mod/rem residue class, exclude, and candidates
// (comma-separated node ids; absent means every node).
func selectionParams(r *http.Request, q *tivaware.Query) error {
	var err error
	if q.SeverityPenalty, err = floatParam(r, "penalty", 0); err != nil {
		return err
	}
	if q.Scatter, err = scatterParams(r); err != nil {
		return err
	}
	switch raw := r.URL.Query().Get("exclude"); raw {
	case "", "false", "0":
	case "true", "1":
		q.ExcludeViolated = true
	default:
		return badRequestf("parameter exclude: want true or false, have %q", raw)
	}
	if raw := r.URL.Query().Get("candidates"); raw != "" {
		for _, f := range strings.Split(raw, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return badRequestf("parameter candidates: %v", err)
			}
			q.Candidates = append(q.Candidates, c)
		}
	}
	return nil
}

// scatterParams decodes the mod/rem residue-class restriction
// (validated downstream by the query layer).
func scatterParams(r *http.Request) (sc tivaware.Scatter, err error) {
	if sc.Mod, err = intParam(r, "mod", 0); err != nil {
		return sc, err
	}
	sc.Rem, err = intParam(r, "rem", 0)
	return sc, err
}

// pairParams decodes the i/j node pair of detour and delay queries.
func pairParams(r *http.Request) (i, j int, err error) {
	if i, err = intParam(r, "i", -1); err != nil {
		return 0, 0, err
	}
	j, err = intParam(r, "j", -1)
	return i, j, err
}

// parseRank decodes GET /v1/rank.
func (s *Server) parseRank(r *http.Request) (tivaware.Query, error) {
	q := tivaware.Query{Kind: tivaware.KindRank}
	var err error
	if q.Target, err = intParam(r, "target", -1); err != nil {
		return q, err
	}
	if q.K, err = s.kParam(r, s.opts.maxRankK()); err != nil {
		return q, err
	}
	return q, selectionParams(r, &q)
}

// parseClosest decodes GET /v1/closest.
func parseClosest(r *http.Request) (tivaware.Query, error) {
	q := tivaware.Query{Kind: tivaware.KindClosest}
	var err error
	if q.Target, err = intParam(r, "target", -1); err != nil {
		return q, err
	}
	return q, selectionParams(r, &q)
}

// parseDetour decodes GET /v1/detour.
func parseDetour(r *http.Request) (tivaware.Query, error) {
	q := tivaware.Query{Kind: tivaware.KindDetour}
	var err error
	if q.I, q.J, err = pairParams(r); err != nil {
		return q, err
	}
	q.Scatter, err = scatterParams(r)
	return q, err
}

// parseTop decodes GET /v1/top.
func (s *Server) parseTop(r *http.Request) (tivaware.Query, error) {
	q := tivaware.Query{Kind: tivaware.KindTop}
	var err error
	if q.K, err = s.kParam(r, 10); err != nil {
		return q, err
	}
	q.Scatter, err = scatterParams(r)
	return q, err
}

// parseDelay decodes GET /v1/delay. Out-of-range pairs are rejected
// by the query layer, as in a batch.
func parseDelay(r *http.Request) (tivaware.Query, error) {
	q := tivaware.Query{Kind: tivaware.KindDelay}
	var err error
	q.I, q.J, err = pairParams(r)
	return q, err
}

// parseAnalysis decodes GET /v1/analysis, which takes no parameters.
func parseAnalysis(*http.Request) (tivaware.Query, error) {
	return tivaware.Query{Kind: tivaware.KindAnalysis}, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	h, err := s.healthWire(r.Context())
	if err != nil {
		serviceError(w, r, err)
		return
	}
	writeMsg(w, r, http.StatusOK, h)
}

// healthWire builds the health report — the transport-free core
// shared by GET /healthz and the framed listener's Hello ping.
func (s *Server) healthWire(ctx context.Context) (tivwire.Health, error) {
	epoch, version, err := s.b.Health(ctx)
	if err != nil {
		return tivwire.Health{}, err
	}
	// Backends that track partial failure (the tivshard gateway)
	// surface it here: "degraded" while any shard is down, "ok"
	// otherwise. Plain services are always "ok" when they answer.
	status := "ok"
	if st, ok := s.b.(interface{ Status() string }); ok {
		status = st.Status()
	}
	h := tivwire.Health{
		Status:  status,
		N:       s.b.N(),
		Live:    s.b.Live(),
		Epoch:   epoch,
		Version: version,
	}
	if s.cache != nil {
		h.Cache = s.cache.stats()
	}
	return h, nil
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req tivwire.UpdateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, tivwire.CodeBadRequest, "decoding body: %v", err)
		return
	}
	cs, err := s.applyWire(r.Context(), &req)
	if err != nil {
		serviceError(w, r, err)
		return
	}
	writeMsg(w, r, http.StatusOK, cs)
}

// applyWire applies one decoded update batch — the transport-free
// core shared by POST /v1/update and the framed listener. Errors are
// typed for errorEnvelope, so both transports answer the identical
// envelope.
func (s *Server) applyWire(ctx context.Context, req *tivwire.UpdateRequest) (tivwire.ChangeSet, error) {
	if !s.b.Live() {
		return tivwire.ChangeSet{}, errNotLive()
	}
	if len(req.Updates) == 0 {
		return tivwire.ChangeSet{}, badRequestf("empty update batch")
	}
	cs, err := s.b.ApplyBatch(ctx, req.ToUpdates())
	if err != nil {
		return tivwire.ChangeSet{}, err
	}
	return tivwire.FromChangeSet(cs), nil
}

// handleSubscribe streams violated-edge change sets as server-sent
// events: one "changeset" event per non-empty ChangeSet, id = monitor
// version. The subscription rides the service's Subscribe fan-out;
// events are forwarded through a buffered channel so a slow client
// never blocks the updating goroutine — a client that falls behind
// the buffer is disconnected (it can reconnect and resync from
// /v1/top) rather than silently fed a torn violated-edge picture.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	if !s.b.Live() {
		writeError(w, r, http.StatusConflict, tivwire.CodeNotLive, "subscriptions require a live service (tivd -live)")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, r, http.StatusInternalServerError, tivwire.CodeInternal, "streaming unsupported by this connection")
		return
	}
	ctx, stop := context.WithCancel(r.Context())
	defer stop()
	// Register and re-check closed under the same lock Close takes:
	// either Close's snapshot sees this registration and cancels it,
	// or this handler sees closed and rejects — a stream can never
	// slip past Close and hang http.Server.Shutdown.
	s.subMu.Lock()
	if s.closed.Load() {
		s.subMu.Unlock()
		writeError(w, r, http.StatusServiceUnavailable, tivwire.CodeUnavailable, "server shutting down")
		return
	}
	id := s.subSeq
	s.subSeq++
	s.subCancel[id] = stop
	s.subMu.Unlock()
	defer func() {
		s.subMu.Lock()
		delete(s.subCancel, id)
		s.subMu.Unlock()
	}()

	events := make(chan tiv.ChangeSet, s.opts.subscribeBuffer())
	var overflow atomic.Bool
	cancel, err := s.b.Subscribe(func(cs tiv.ChangeSet) {
		select {
		case events <- cs:
		default:
			// Too far behind: mark and wake the writer to disconnect.
			if overflow.CompareAndSwap(false, true) {
				stop()
			}
		}
	})
	if err != nil {
		serviceError(w, r, err)
		return
	}
	defer cancel()

	// The hello counters are read AFTER the subscription is live, so
	// every change set this stream will NOT deliver (applied before
	// registration) has version ≤ hello.Version — the invariant
	// reconnecting clients rely on for version-gap detection (a
	// reconnect hello equal to the last delivered version proves no
	// delta was missed).
	epoch, version, herr := s.b.Health(ctx)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// An initial comment line confirms the stream is open before any
	// event arrives (clients use it as the subscription handshake).
	fmt.Fprintf(w, ": subscribed n=%d\n\n", s.b.N())
	if herr == nil {
		if payload, err := json.Marshal(tivwire.Hello{N: s.b.N(), Version: version, Epoch: epoch}); err == nil {
			fmt.Fprintf(w, "event: hello\ndata: %s\n\n", payload)
		}
	}
	flusher.Flush()

	for {
		select {
		case <-ctx.Done():
			if overflow.Load() {
				// Best effort: tell the client why before closing.
				fmt.Fprint(w, "event: overflow\ndata: {}\n\n")
				flusher.Flush()
			}
			return
		case cs := <-events:
			payload, err := json.Marshal(tivwire.FromChangeSet(cs))
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: changeset\ndata: %s\n\n", cs.Version, payload)
			flusher.Flush()
		}
	}
}
