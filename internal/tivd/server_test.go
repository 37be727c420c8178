package tivd_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tivaware/internal/delayspace"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivd"
	"tivaware/internal/tivwire"
)

// tivMatrix is the canonical hand-checkable TIV matrix (edge (0,1)
// violated; best detour 0→2→1 = 30, gain 70).
func tivMatrix() *delayspace.Matrix {
	m := delayspace.New(4)
	m.Set(0, 1, 100)
	m.Set(0, 2, 10)
	m.Set(1, 2, 20)
	m.Set(0, 3, 40)
	m.Set(1, 3, 40)
	m.Set(2, 3, 45)
	return m
}

// queryFunc answers one typed query; a per-query failure is the error.
type queryFunc func(context.Context, tivaware.Query) (tivaware.Result, error)

// batchOne adapts a Querier to the single-query shape of
// tivclient.Client.Query.
func batchOne(qr tivaware.Querier) queryFunc {
	return func(ctx context.Context, q tivaware.Query) (tivaware.Result, error) {
		res, err := qr.QueryBatch(ctx, []tivaware.Query{q})
		if err != nil {
			return tivaware.Result{}, err
		}
		return res[0], res[0].Err
	}
}

// getJSON issues a plain GET and decodes a 200 JSON body into out.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// startDaemon serves svc over a test HTTP server and returns a
// connected client.
func startDaemon(t *testing.T, svc *tivaware.Service, opts tivd.Options) (*tivclient.Client, *tivd.Server) {
	t.Helper()
	srv, err := tivd.New(svc, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	return tivclient.New(ts.URL, tivclient.Options{}), srv
}

func TestDaemonQueryRoundTrip(t *testing.T) {
	m := tivMatrix()
	svc, err := tivaware.NewFromMatrix(m, tivaware.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, _ := startDaemon(t, svc, tivd.Options{})
	ctx := context.Background()

	h, err := client.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.N != 4 || h.Live || h.Epoch == 0 {
		t.Errorf("healthz = %+v, want ok/4 nodes/batch/nonzero epoch", h)
	}

	// The networked answers must equal the in-process ones, shape for
	// shape: Client.Query and a Service batch of one answer the same
	// typed query.
	rank := tivaware.Query{Kind: tivaware.KindRank, SeverityPenalty: 2}
	for _, q := range []struct {
		name  string
		query queryFunc
	}{{"remote", client.Query}, {"in-process", batchOne(svc)}} {
		res, err := q.query(ctx, rank)
		if err != nil {
			t.Fatalf("%s rank: %v", q.name, err)
		}
		if ranked := res.Selections; len(ranked) != 3 || ranked[0].Node != 2 {
			t.Fatalf("%s rank = %+v", q.name, ranked)
		}
	}
	want, err := svc.Rank(ctx, 0, nil, tivaware.QueryOptions{SeverityPenalty: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Query(ctx, rank)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Selections
	for k := range want {
		if got[k].Node != want[k].Node || got[k].Violated != want[k].Violated ||
			got[k].Violations != want[k].Violations ||
			math.Abs(got[k].Score-want[k].Score) > 1e-12 ||
			math.Abs(got[k].Severity-want[k].Severity) > 1e-12 {
			t.Errorf("rank[%d]: remote %+v, in-process %+v", k, got[k], want[k])
		}
	}

	res, err = client.Query(ctx, tivaware.Query{Kind: tivaware.KindRank, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if top2 := res.Selections; len(top2) != 2 || top2[0].Node != 2 || top2[1].Node != 3 {
		t.Errorf("rank k=2 = %+v", top2)
	}

	res, err = client.Query(ctx, tivaware.Query{Kind: tivaware.KindClosest, ExcludeViolated: true})
	if err != nil {
		t.Fatal(err)
	}
	if best := res.Selections[0]; best.Node != 2 || best.Violated {
		t.Errorf("closest = %+v", best)
	}

	res, err = client.Query(ctx, tivaware.Query{Kind: tivaware.KindDetour, I: 0, J: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Detour; d.Via != 2 || d.ViaDelay != 30 || d.Gain != 70 || d.Direct != 100 || !d.Beneficial() {
		t.Errorf("detour = %+v", d)
	}

	res, err = client.Query(ctx, tivaware.Query{Kind: tivaware.KindTop, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if top := res.Edges; len(top) != 1 || top[0].I != 0 || top[0].J != 1 || top[0].Delay <= 0 {
		t.Errorf("top = %+v, want the violated edge (0,1)", top)
	}

	res, err = client.Query(ctx, tivaware.Query{Kind: tivaware.KindDelay, I: 0, J: 2})
	if err != nil || !res.DelayOK || res.Delay != 10 {
		t.Errorf("delay(0,2) = %g,%v,%v, want 10,true,nil", res.Delay, res.DelayOK, err)
	}

	res, err = client.Query(ctx, tivaware.Query{Kind: tivaware.KindAnalysis})
	if err != nil {
		t.Fatal(err)
	}
	// Edge (0,1) is violated by both witnesses 2 and 3: two violating
	// triples out of C(4,3) = 4.
	if an := res.Analysis; an.ViolatingTriangles != 2 || an.N != 4 || an.Triangles != 4 {
		t.Errorf("analysis = %+v", an)
	}

	// Batch daemons reject updates and subscriptions.
	if _, err := client.ApplyUpdate(ctx, 0, 1, 50); err == nil {
		t.Error("ApplyUpdate on a batch daemon should error")
	}
	if err := client.Subscribe(ctx, nil, func(tivwire.ChangeSet) {}); err == nil {
		t.Error("Subscribe on a batch daemon should error")
	}
}

func TestDaemonUpdateAndSubscribeRoundTrip(t *testing.T) {
	m := tivMatrix()
	m.Set(0, 1, 25) // start violation-free (10+20 = 30 > 25)
	svc, err := tivaware.NewFromMatrix(m, tivaware.Options{Live: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, _ := startDaemon(t, svc, tivd.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	h, err := client.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Live {
		t.Fatal("live daemon reports live=false")
	}

	// Subscribe first, handshake-synchronized, then push an update
	// through the wire and expect its change set on the stream.
	ready := make(chan struct{})
	events := make(chan tivwire.ChangeSet, 16)
	var wg sync.WaitGroup
	wg.Add(1)
	var subErr error
	go func() {
		defer wg.Done()
		subErr = client.Subscribe(ctx, ready, func(cs tivwire.ChangeSet) { events <- cs })
	}()
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("subscription handshake timed out")
	}

	cs, err := client.ApplyUpdate(ctx, 0, 1, 100) // violate edge (0,1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.NewlyViolated) != 1 || cs.NewlyViolated[0].I != 0 || cs.NewlyViolated[0].J != 1 {
		t.Fatalf("update response = %+v, want edge (0,1) newly violated", cs)
	}

	select {
	case ev := <-events:
		if len(ev.NewlyViolated) != 1 || ev.NewlyViolated[0].I != 0 || ev.NewlyViolated[0].J != 1 {
			t.Errorf("subscription event = %+v, want edge (0,1) newly violated", ev)
		}
		if ev.Version != cs.Version {
			t.Errorf("event version %d != update response version %d", ev.Version, cs.Version)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscription event did not arrive")
	}

	// The daemon's epoch advanced and its analysis reflects the update.
	var an tivwire.AnalysisResponse
	if err := getJSON(client.BaseURL()+"/v1/analysis", &an); err != nil {
		t.Fatal(err)
	}
	if an.ViolatingTriangles != 2 {
		t.Errorf("post-update analysis = %+v, want 2 violating triangles", an)
	}
	if an.Epoch <= h.Epoch {
		t.Errorf("epoch did not advance across the update: %d then %d", h.Epoch, an.Epoch)
	}

	// Clear the violation through a batch; the stream reports it.
	if _, err := client.ApplyBatch(ctx, []tivwire.Update{{I: 0, J: 1, RTT: 25}}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if len(ev.Cleared) != 1 {
			t.Errorf("clear event = %+v, want edge (0,1) cleared", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("clear event did not arrive")
	}

	// Cancelling the context shuts the stream down cleanly.
	cancel()
	wg.Wait()
	if subErr != nil {
		t.Errorf("Subscribe after cancel: %v", subErr)
	}
}

func TestDaemonValidationErrors(t *testing.T) {
	svc, err := tivaware.NewFromMatrix(tivMatrix(), tivaware.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, srv := startDaemon(t, svc, tivd.Options{MaxRankK: 8})
	ctx := context.Background()

	for _, c := range []struct {
		name string
		q    tivaware.Query
	}{
		{"out-of-range target", tivaware.Query{Kind: tivaware.KindRank, Target: 99}},
		{"duplicate candidates", tivaware.Query{Kind: tivaware.KindRank, Candidates: []int{1, 1}}},
		{"k beyond MaxRankK", tivaware.Query{Kind: tivaware.KindRank, K: 99}},
		{"negative k", tivaware.Query{Kind: tivaware.KindRank, K: -1}},
		{"diagonal detour", tivaware.Query{Kind: tivaware.KindDetour, I: 1, J: 1}},
		{"out-of-range delay pair", tivaware.Query{Kind: tivaware.KindDelay, I: 0, J: 99}},
	} {
		if _, err := client.Query(ctx, c.q); err == nil {
			t.Errorf("%s should error", c.name)
		}
	}
	// The GET endpoints answer out-of-range parameters with the exact
	// status, taxonomy code and message, whichever layer rejects them
	// (parameter parsing, normalization, or the query itself).
	for _, c := range []struct {
		path, msg string
	}{
		{"/v1/rank?target=0&k=0", "parameter k: 0 outside [1,8]"},
		{"/v1/rank?target=0&k=9", "parameter k: 9 outside [1,8]"},
		{"/v1/top?k=0", "parameter k: 0 outside [1,8]"},
		{"/v1/top?k=9", "parameter k: 9 outside [1,8]"},
		{"/v1/top", "parameter k: 10 outside [1,8]"}, // the default k exceeds this cap
		{"/v1/rank?target=0&mod=-2&rem=0", "tivaware: negative residue modulus -2"},
		{"/v1/rank?target=0&mod=2&rem=2", "tivaware: residue 2 outside [0,2)"},
		{"/v1/top?k=3&mod=-2&rem=0", "tivaware: negative residue modulus -2"},
		{"/v1/top?k=3&mod=2&rem=2", "tivaware: residue 2 outside [0,2)"},
		{"/v1/rank?target=99", "tivaware: target 99 out of range [0,4)"},
		{"/v1/closest?target=-1", "tivaware: target -1 out of range [0,4)"},
		{"/v1/detour?i=0&j=1&mod=2&rem=5", "tivaware: residue 5 outside [0,2)"},
		{"/v1/delay?i=0&j=99", "tivaware: node 99 out of range [0,4)"},
	} {
		resp, err := http.Get(client.BaseURL() + c.path)
		if err != nil {
			t.Fatal(err)
		}
		var env tivwire.Error
		derr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || derr != nil ||
			env.Code != tivwire.CodeBadRequest || env.Error != c.msg {
			t.Errorf("GET %s = %d %+v (%v), want 400 %s %q", c.path, resp.StatusCode, env, derr,
				tivwire.CodeBadRequest, c.msg)
		}
	}

	// Wrong methods are rejected with Allow headers.
	resp, err := http.Get(client.BaseURL() + "/v1/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/update = %d, want 405", resp.StatusCode)
	}
	_ = srv
}

// TestClientEmptyCandidatesParity pins Query parity for an explicitly
// empty candidate set: the wire cannot express it (an absent parameter
// means all nodes), so the client must reproduce the Service's
// semantics locally instead of silently ranking everything.
func TestClientEmptyCandidatesParity(t *testing.T) {
	svc, err := tivaware.NewFromMatrix(tivMatrix(), tivaware.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, _ := startDaemon(t, svc, tivd.Options{})
	ctx := context.Background()
	empty := []int{}

	for _, q := range []struct {
		name  string
		query queryFunc
	}{{"in-process", batchOne(svc)}, {"remote", client.Query}} {
		res, err := q.query(ctx, tivaware.Query{Kind: tivaware.KindRank, Candidates: empty})
		if err != nil || len(res.Selections) != 0 {
			t.Errorf("%s rank with empty candidates = %v, %v; want empty, nil", q.name, res.Selections, err)
		}
		res, err = q.query(ctx, tivaware.Query{Kind: tivaware.KindRank, K: 2, Candidates: empty})
		if err != nil || len(res.Selections) != 0 {
			t.Errorf("%s rank k=2 with empty candidates = %v, %v; want empty, nil", q.name, res.Selections, err)
		}
		if _, err := q.query(ctx, tivaware.Query{Kind: tivaware.KindClosest, Candidates: empty}); err == nil {
			t.Errorf("%s closest with empty candidates should error", q.name)
		}
	}
}

// TestRankTruncationIsSignalled: a daemon cap below the candidate
// count must surface as Result.Truncated from Client.Query, never a
// silently shortened ranking.
func TestRankTruncationIsSignalled(t *testing.T) {
	svc, err := tivaware.NewFromMatrix(tivMatrix(), tivaware.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, _ := startDaemon(t, svc, tivd.Options{MaxRankK: 2}) // 3 candidates rank for node 0
	ctx := context.Background()
	res, err := client.Query(ctx, tivaware.Query{Kind: tivaware.KindRank})
	if err != nil || !res.Truncated || len(res.Selections) != 2 {
		t.Errorf("rank over the cap = %+v, %v; want 2 selections marked truncated", res, err)
	}
	// A bound within the cap still works and is explicitly bounded.
	res, err = client.Query(ctx, tivaware.Query{Kind: tivaware.KindRank, K: 2})
	if err != nil || len(res.Selections) != 2 {
		t.Errorf("rank k=2 under cap = %v, %v", res.Selections, err)
	}
}

// TestUnencodableAnswerIsTypedInternal: a penalized score that
// overflows to +Inf has no JSON form. The daemon must answer with the
// typed internal envelope and its status, never a 200 with an empty
// body: on the GET endpoint and inside a JSON batch alike.
func TestUnencodableAnswerIsTypedInternal(t *testing.T) {
	svc, err := tivaware.NewFromMatrix(tivMatrix(), tivaware.Options{Live: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, _ := startDaemon(t, svc, tivd.Options{})
	if _, err := client.ApplyBatch(context.Background(), []tivwire.Update{
		{I: 0, J: 1, RTT: 1e308}, {I: 1, J: 2, RTT: 1e308},
	}); err != nil {
		t.Fatal(err)
	}
	base := client.BaseURL()
	for _, req := range []struct {
		name, method, url, body string
	}{
		{"GET /v1/rank", http.MethodGet, base + "/v1/rank?target=0&penalty=1&candidates=1,2,3", ""},
		{"POST /v1/batch", http.MethodPost, base + "/v1/batch",
			`{"queries":[{"kind":"rank","target":0,"penalty":1,"candidates":[1,2,3]}]}`},
	} {
		r, err := http.NewRequest(req.method, req.url, strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var env tivwire.Error
		if resp.StatusCode != http.StatusServiceUnavailable || json.Unmarshal(raw, &env) != nil ||
			env.Code != tivwire.CodeInternal || env.Error == "" {
			t.Errorf("%s: HTTP %d body %q, want 503 with the %q envelope", req.name, resp.StatusCode, raw, tivwire.CodeInternal)
		}
	}
}

// TestCloseRacesSubscribe: a Subscribe arriving while the server
// shuts down must either be rejected or have its stream cancelled —
// never survive Close and hang Shutdown.
func TestCloseRacesSubscribe(t *testing.T) {
	m := tivMatrix()
	svc, err := tivaware.NewFromMatrix(m, tivaware.Options{Live: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		srv, err := tivd.New(svc, tivd.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		client := tivclient.New(ts.URL, tivclient.Options{})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		done := make(chan struct{})
		go func() {
			defer close(done)
			// Outcome is irrelevant (rejected or cancelled); only
			// termination matters.
			_ = client.Subscribe(ctx, nil, func(tivwire.ChangeSet) {})
		}()
		srv.Close() // race against the subscription registering
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("subscription survived Server.Close")
		}
		cancel()
		ts.Close()
	}
}
