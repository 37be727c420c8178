package tivd

import (
	"context"
	"encoding/json"
	"io"
	"net/http"

	"tivaware/internal/tivaware"
	"tivaware/internal/tivwire"
)

// The unified query path. Every read — the single-shot GETs, POST
// /v1/batch and framed batches — funnels through resolveBatch, so the
// epoch-keyed cache and the error taxonomy behave identically no
// matter how a query arrives. A single-shot GET is served as a batch
// of one, which is what makes the cache coherent across paths: every
// path produces the same canonical key for the same effective query.

// maxBodyBytes caps request bodies (update and batch): large enough
// for the biggest sane batch, small enough to bound a hostile post.
const maxBodyBytes = 16 << 20

// decodeBody reads and decodes a request body in the codec its
// Content-Type declares: the compact binary framing when negotiated,
// JSON otherwise.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if sendsBinary(r) {
		data, err := io.ReadAll(body)
		if err != nil {
			return err
		}
		return tivwire.UnmarshalBinaryInto(data, v)
	}
	return json.NewDecoder(body).Decode(v)
}

// normalizeQuery applies the daemon's defaults and caps so the cache
// key reflects the effective query, not its spelling: a rank with no
// k and a rank with k equal to the cap are the same computation and
// must share an entry. Returns the client-fault error for
// out-of-range parameters.
func (s *Server) normalizeQuery(q *tivaware.Query) error {
	switch q.Kind {
	case tivaware.KindRank, tivaware.KindClosest:
		max := s.opts.maxRankK()
		if q.Kind == tivaware.KindClosest {
			q.K = 1
			return nil
		}
		if q.K == 0 {
			q.K = max
		}
		if q.K < 0 || q.K > max {
			return badRequestf("parameter k: %d outside [1,%d]", q.K, max)
		}
	case tivaware.KindTop:
		if q.K == 0 {
			q.K = 10
		}
		if q.K < 0 || q.K > s.opts.maxRankK() {
			return badRequestf("parameter k: %d outside [1,%d]", q.K, s.opts.maxRankK())
		}
	}
	return nil
}

// serveQuery is the single-shot tail shared by the GET endpoints: a
// batch of one through resolveBatch, answered with the one payload
// (or error envelope) the kind produces.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, q tivaware.Query) {
	resp, err := s.resolveBatch(r.Context(), []tivaware.Query{q})
	if err != nil {
		serviceError(w, r, err)
		return
	}
	writeWireResult(w, r, &resp.Results[0])
}

// writeWireResult writes the payload (or error envelope) a resolved
// wire result carries, exactly as the kind's endpoint would.
func writeWireResult(w http.ResponseWriter, r *http.Request, wr *tivwire.Result) {
	switch {
	case wr.Err != nil:
		writeMsg(w, r, statusForCode(wr.Err.Code), *wr.Err)
	case wr.Rank != nil:
		writeMsg(w, r, http.StatusOK, *wr.Rank)
	case wr.Detour != nil:
		writeMsg(w, r, http.StatusOK, *wr.Detour)
	case wr.Top != nil:
		writeMsg(w, r, http.StatusOK, *wr.Top)
	case wr.Delay != nil:
		writeMsg(w, r, http.StatusOK, *wr.Delay)
	case wr.Analysis != nil:
		writeMsg(w, r, http.StatusOK, *wr.Analysis)
	default:
		writeError(w, r, http.StatusServiceUnavailable, tivwire.CodeInternal, "query %q produced no payload", wr.Kind)
	}
}

// handleBatch answers POST /v1/batch: a vector of heterogeneous typed
// queries in one round trip. Cache hits are served from the resident
// entries; all misses go to the backend as ONE QueryBatch call (the
// batching win a gateway turns into one scatter per shard per batch).
// Per-query failures — unknown kinds, out-of-range parameters,
// analysis divergence — land in the aligned Results vector; only a
// malformed request or a whole-backend failure fails the call.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req tivwire.BatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, tivwire.CodeBadRequest, "decoding body: %v", err)
		return
	}
	resp, err := s.resolveBatch(r.Context(), tivwire.ToQueries(req.Queries))
	if err != nil {
		serviceError(w, r, err)
		return
	}
	writeMsg(w, r, http.StatusOK, *resp)
}

// resolveBatch answers a vector of queries — the one read core, shared
// by the GET endpoints, POST /v1/batch and the framed listener, so the
// cache and taxonomy behavior cannot drift between paths. A returned
// error is a whole-call failure already typed for errorEnvelope
// (reqError or a backend error); per-query failures land in the
// aligned Results vector.
func (s *Server) resolveBatch(ctx context.Context, queries []tivaware.Query) (*tivwire.BatchResponse, error) {
	if len(queries) == 0 {
		return nil, badRequestf("empty batch")
	}
	if max := s.opts.maxBatch(); len(queries) > max {
		return nil, badRequestf("batch of %d queries exceeds limit %d", len(queries), max)
	}

	results := make([]tivwire.Result, len(queries))

	// Normalize every query first (the cache key must see effective
	// parameters); a bad query fails alone, never the batch.
	valid := make([]bool, len(queries))
	for i := range queries {
		if err := s.normalizeQuery(&queries[i]); err != nil {
			e := envelope(tivwire.CodeBadRequest, err)
			results[i] = tivwire.Result{Kind: string(queries[i].Kind), Err: &e}
			continue
		}
		valid[i] = true
	}

	// Partition valid queries into cache hits and misses under one
	// version-pair reading.
	var qv, av uint64
	var keys []string
	if s.cache != nil {
		qv, av = s.b.CacheVersion()
		keys = make([]string, len(queries))
	}
	var epoch uint64
	missIdx := make([]int, 0, len(queries))
	for i := range queries {
		if !valid[i] {
			continue
		}
		if s.cache != nil && cacheableKind(queries[i].Kind) {
			keys[i] = canonicalKey(queries[i], qv, av)
			if val, e, ok := s.cache.get(keys[i]); ok {
				results[i] = *val
				if e > epoch {
					epoch = e
				}
				continue
			}
			s.cache.misses.Add(1)
		}
		missIdx = append(missIdx, i)
	}

	// One backend round trip answers every miss against one pinned
	// epoch.
	if len(missIdx) > 0 {
		miss := make([]tivaware.Query, len(missIdx))
		for k, i := range missIdx {
			miss[k] = queries[i]
		}
		res, e, err := s.b.QueryBatch(ctx, miss)
		if err != nil {
			return nil, err
		}
		if len(res) != len(miss) {
			return nil, internalErrorf("backend answered %d results for %d queries", len(res), len(miss))
		}
		epoch = e
		// Store successes only if the version pair survived the
		// computation — otherwise the key would lie about the state the
		// entry reflects.
		store := false
		if s.cache != nil {
			qv2, av2 := s.b.CacheVersion()
			store = qv2 == qv && av2 == av
		}
		for k, i := range missIdx {
			q := miss[k]
			wr := tivwire.FromResult(q, res[k], e, func(err error) tivwire.Error {
				_, env := resultEnvelope(q.Kind, err)
				return env
			})
			results[i] = wr
			if store && wr.Err == nil && keys[i] != "" {
				stored := wr
				s.cache.put(keys[i], &stored, e)
			}
		}
	}

	return &tivwire.BatchResponse{Epoch: epoch, Results: results}, nil
}
