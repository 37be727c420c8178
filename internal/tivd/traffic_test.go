package tivd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivd"
	"tivaware/internal/tivwire"
)

// newHTTPServer serves h for the test's lifetime, returning its URL.
func newHTTPServer(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

func readJSON(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// synthService builds a live 40-node service with deterministic
// analysis (one worker ⇒ bit-reproducible severities).
func synthService(t *testing.T) *tivaware.Service {
	t.Helper()
	sp, err := synth.Generate(synth.DS2Like(40, 3))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := tivaware.NewFromMatrix(sp.Matrix, tivaware.Options{Live: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// trafficQueries is a mixed batch covering every query kind plus a
// per-query failure (rank target out of range).
func trafficQueries(n int) []tivaware.Query {
	return []tivaware.Query{
		{Kind: tivaware.KindRank, Target: 0, K: 3},
		{Kind: tivaware.KindRank, Target: 1, K: 5, SeverityPenalty: 2.5},
		{Kind: tivaware.KindRank, Target: 2, K: 4, ExcludeViolated: true, SeverityPenalty: 1},
		{Kind: tivaware.KindClosest, Target: 3},
		{Kind: tivaware.KindDetour, I: 0, J: 5},
		{Kind: tivaware.KindTop, K: 7},
		{Kind: tivaware.KindDelay, I: 1, J: 4},
		{Kind: tivaware.KindAnalysis},
		{Kind: tivaware.KindRank, Target: n + 100, K: 2}, // per-query error
	}
}

// TestBatchMatchesSingles proves POST /v1/batch answers exactly what
// the per-endpoint surface answers, for JSON and binary framing, on
// both a cold and a cache-hot pass.
func TestBatchMatchesSingles(t *testing.T) {
	svc := synthService(t)
	n := svc.N()
	for _, binary := range []bool{false, true} {
		name := map[bool]string{false: "json", true: "binary"}[binary]
		t.Run(name, func(t *testing.T) {
			srv, err := tivd.New(svc, tivd.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ts := newTestServer(t, srv)
			client := tivclient.New(ts, tivclient.Options{Binary: binary})
			ctx := context.Background()

			for pass := 0; pass < 2; pass++ { // second pass is cache-hot
				queries := trafficQueries(n)
				results, err := client.QueryBatch(ctx, queries)
				if err != nil {
					t.Fatalf("pass %d: QueryBatch: %v", pass, err)
				}
				if len(results) != len(queries) {
					t.Fatalf("pass %d: %d results for %d queries", pass, len(results), len(queries))
				}
				for qi, q := range queries {
					res := results[qi]
					if res.Kind != q.Kind {
						t.Errorf("pass %d query %d: kind %q, want %q", pass, qi, res.Kind, q.Kind)
					}
					single, err := client.Query(ctx, q)
					if err != nil {
						if res.Err == nil {
							t.Errorf("pass %d query %d: single errored (%v), batch did not", pass, qi, err)
						}
						continue
					}
					if res.Err != nil {
						t.Errorf("pass %d query %d: batch errored (%v), single did not", pass, qi, res.Err)
						continue
					}
					if !reflect.DeepEqual(res, single) {
						t.Errorf("pass %d query %d: batch %s diverges from single:\n batch:  %+v\n single: %+v", pass, qi, q.Kind, res, single)
					}
				}
			}
			// The second pass must have hit the cache.
			h, err := client.Healthz(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if h.Cache == nil || h.Cache.Hits == 0 {
				t.Errorf("cache-hot pass recorded no hits: %+v", h.Cache)
			}
		})
	}
}

// newTestServer serves srv and returns its base URL.
func newTestServer(t *testing.T, srv *tivd.Server) string {
	t.Helper()
	ts := newHTTPServer(t, srv.Handler())
	t.Cleanup(srv.Close)
	return ts
}

// TestBinaryJSONEndpointParity runs every endpoint (and the error
// envelope path) through a JSON client and a binary client and
// requires decoded-struct equality. The two clients talk to twin
// daemons over identical matrices so that write traffic (updates)
// can be compared too, in lockstep.
func TestBinaryJSONEndpointParity(t *testing.T) {
	mk := func(binary bool) *tivclient.Client {
		svc := synthService(t) // same seed ⇒ identical twin
		srv, err := tivd.New(svc, tivd.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return tivclient.New(newTestServer(t, srv), tivclient.Options{Binary: binary})
	}
	js := mk(false)
	bin := mk(true)
	ctx := context.Background()

	check := func(name string, a, b any, errA, errB error) {
		t.Helper()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: json err=%v binary err=%v", name, errA, errB)
		}
		if errA != nil {
			var ea, eb *tivclient.Error
			if !errors.As(errA, &ea) || !errors.As(errB, &eb) {
				t.Fatalf("%s: errors not typed: %v / %v", name, errA, errB)
			}
			if ea.Code != eb.Code || ea.Status != eb.Status || ea.Message != eb.Message {
				t.Errorf("%s: error envelopes diverge:\n json:   %+v\n binary: %+v", name, ea, eb)
			}
			return
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: codecs disagree:\n json:   %#v\n binary: %#v", name, a, b)
		}
	}

	hj, err1 := js.Healthz(ctx)
	hb, err2 := bin.Healthz(ctx)
	check("healthz", hj, hb, err1, err2)

	for _, q := range []tivaware.Query{
		{Kind: tivaware.KindRank, Target: 0, K: 5, SeverityPenalty: 2},
		{Kind: tivaware.KindClosest, Target: 1},
		{Kind: tivaware.KindDetour, I: 0, J: 3},
		{Kind: tivaware.KindTop, K: 5},
		{Kind: tivaware.KindDelay, I: 2, J: 3},
		{Kind: tivaware.KindAnalysis},
	} {
		rj, err1 := js.Query(ctx, q)
		rb, err2 := bin.Query(ctx, q)
		check(string(q.Kind), rj, rb, err1, err2)
	}

	uj, err1 := js.ApplyUpdate(ctx, 0, 1, 42.5)
	ub, err2 := bin.ApplyUpdate(ctx, 0, 1, 42.5)
	check("update", uj, ub, err1, err2)

	// Error envelopes: out-of-range target through both codecs.
	badRank := tivaware.Query{Kind: tivaware.KindRank, Target: 10_000, K: 3}
	_, err1 = js.Query(ctx, badRank)
	_, err2 = bin.Query(ctx, badRank)
	check("rank-error", nil, nil, err1, err2)
	badDelay := tivaware.Query{Kind: tivaware.KindDelay, I: -1, J: 2}
	_, err1 = js.Query(ctx, badDelay)
	_, err2 = bin.Query(ctx, badDelay)
	check("delay-error", nil, nil, err1, err2)
	// Per-query error envelopes inside a batch (unknown kind).
	bj, err1 := js.QueryBatch(ctx, []tivaware.Query{{Kind: "nonsense"}})
	bb, err2 := bin.QueryBatch(ctx, []tivaware.Query{{Kind: "nonsense"}})
	if err1 != nil || err2 != nil {
		t.Fatalf("batch call errors: %v / %v", err1, err2)
	}
	check("batch-unknown-kind", nil, nil, bj[0].Err, bb[0].Err)
}

// TestMixedNegotiation sends a JSON body with a binary Accept: the
// request codec and response codec negotiate independently.
func TestMixedNegotiation(t *testing.T) {
	svc := synthService(t)
	srv, err := tivd.New(svc, tivd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	url := newTestServer(t, srv)

	body := []byte(`{"queries":[{"kind":"closest","target":0}]}`)
	req, err := http.NewRequest("POST", url+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", tivwire.BinaryContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != tivwire.BinaryContentType {
		t.Fatalf("response Content-Type %q, want %q", ct, tivwire.BinaryContentType)
	}
	var br tivwire.BatchResponse
	if err := tivwire.UnmarshalBinaryInto(raw, &br); err != nil {
		t.Fatalf("binary response did not decode: %v", err)
	}
	if len(br.Results) != 1 || br.Results[0].Rank == nil {
		t.Fatalf("unexpected batch response: %+v", br)
	}
}

// TestResidueParamsMatchBatch proves the GET endpoints' mod/rem
// parameters answer identically to the typed Query.Scatter of a
// batch, one single-shot round trip per residue-aware kind.
func TestResidueParamsMatchBatch(t *testing.T) {
	svc := synthService(t)
	srv, err := tivd.New(svc, tivd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	url := newTestServer(t, srv)
	client := tivclient.New(url, tivclient.Options{})
	ctx := context.Background()

	class := tivaware.Scatter{Mod: 2, Rem: 1}
	queries := []tivaware.Query{
		{Kind: tivaware.KindRank, Target: 0, K: 4, Scatter: class},
		{Kind: tivaware.KindClosest, Target: 3, Scatter: class},
		{Kind: tivaware.KindDetour, I: 0, J: 5, Scatter: class},
		{Kind: tivaware.KindTop, K: 6, Scatter: class},
	}
	results, err := client.QueryBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		single, err := client.Query(ctx, q)
		if err != nil || results[i].Err != nil {
			t.Fatalf("%s: single err %v, batch err %v", q.Kind, err, results[i].Err)
		}
		if !reflect.DeepEqual(single, results[i]) {
			t.Errorf("%s: mod/rem params diverge from typed Scatter:\n get:   %+v\n batch: %+v", q.Kind, single, results[i])
		}
	}
}

// TestQueryCacheCoherence exercises the epoch-keyed cache: hits on
// repeats, invalidation by version change (never stale answers), and
// the disable switch.
func TestQueryCacheCoherence(t *testing.T) {
	svc := synthService(t)
	srv, err := tivd.New(svc, tivd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	url := newTestServer(t, srv)
	client := tivclient.New(url, tivclient.Options{})
	ctx := context.Background()

	h0, err := client.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h0.Cache == nil {
		t.Fatal("cache enabled by default but healthz reports none")
	}

	top := func(c *tivclient.Client, k int) ([]delayspace.Edge, error) {
		res, err := c.Query(ctx, tivaware.Query{Kind: tivaware.KindTop, K: k})
		return res.Edges, err
	}
	before, err := top(client, 5)
	if err != nil {
		t.Fatal(err)
	}
	again, err := top(client, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, again) {
		t.Fatalf("repeat query diverged: %v vs %v", before, again)
	}
	h1, err := client.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h1.Cache.Hits == h0.Cache.Hits {
		t.Errorf("repeat of an identical query recorded no cache hit: %+v", h1.Cache)
	}

	// Perturb the edge currently at the top: the next read must see
	// the new world, not the cached epoch's.
	worst := before[0]
	if _, err := client.ApplyUpdate(ctx, worst.I, worst.J, 0.001); err != nil {
		t.Fatal(err)
	}
	after, err := top(client, 5)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(before, after) {
		t.Errorf("top edges unchanged after updating edge (%d,%d): stale cache", worst.I, worst.J)
	}
	for _, e := range after {
		if e.I == worst.I && e.J == worst.J {
			t.Errorf("updated edge (%d,%d) still listed: %+v", worst.I, worst.J, after)
		}
	}

	// Disabled cache: no stats in healthz, queries still work.
	srv2, err := tivd.New(svc, tivd.Options{CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	url2 := newTestServer(t, srv2)
	client2 := tivclient.New(url2, tivclient.Options{})
	h2, err := client2.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Cache != nil {
		t.Errorf("cache disabled but healthz reports %+v", h2.Cache)
	}
	if _, err := top(client2, 3); err != nil {
		t.Fatal(err)
	}
}

// TestBatchLimitsAndEpochPin covers the request-size guard and the
// single-epoch contract: every payload in a batch response carries
// the response's pinned epoch.
func TestBatchLimitsAndEpochPin(t *testing.T) {
	svc := synthService(t)
	srv, err := tivd.New(svc, tivd.Options{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	url := newTestServer(t, srv)
	client := tivclient.New(url, tivclient.Options{})
	ctx := context.Background()

	over := make([]tivaware.Query, 5)
	for i := range over {
		over[i] = tivaware.Query{Kind: tivaware.KindClosest, Target: i}
	}
	_, err = client.QueryBatch(ctx, over)
	var ce *tivclient.Error
	if !errors.As(err, &ce) || ce.Code != tivwire.CodeBadRequest {
		t.Fatalf("oversized batch: got %v, want %s envelope", err, tivwire.CodeBadRequest)
	}

	// Raw batch response: payload epochs all equal the pinned epoch.
	body := []byte(`{"queries":[{"kind":"rank","target":0,"k":2},{"kind":"top","k":3},{"kind":"analysis"}]}`)
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br tivwire.BatchResponse
	if err := readJSON(resp.Body, &br); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(br.Results) != 3 {
		t.Fatalf("status %d, results %+v", resp.StatusCode, br.Results)
	}
	if br.Results[0].Rank.Epoch != br.Epoch || br.Results[1].Top.Epoch != br.Epoch || br.Results[2].Analysis.Epoch != br.Epoch {
		t.Errorf("payload epochs not pinned to batch epoch %d: %d/%d/%d", br.Epoch,
			br.Results[0].Rank.Epoch, br.Results[1].Top.Epoch, br.Results[2].Analysis.Epoch)
	}
}
