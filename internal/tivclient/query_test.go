package tivclient_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivwire"
)

// recordingDaemon answers every GET query endpoint with a fixed,
// well-formed payload in the negotiated codec and records the request
// URI of each call.
type recordingDaemon struct {
	mu   sync.Mutex
	uris []string
}

func (d *recordingDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	d.uris = append(d.uris, r.URL.RequestURI())
	d.mu.Unlock()
	var msg any
	switch r.URL.Path {
	case "/v1/rank", "/v1/closest":
		msg = tivwire.RankResponse{Selections: []tivwire.Selection{{Node: 1, Delay: 2, Score: 2}}}
	case "/v1/detour":
		msg = tivwire.DetourResponse{Detour: tivwire.Detour{Via: -1}}
	case "/v1/top":
		msg = tivwire.TopResponse{Edges: []tivwire.Edge{{I: 0, J: 1, Severity: 0.5}}}
	case "/v1/delay":
		msg = tivwire.DelayResponse{Delay: 7, OK: true}
	case "/v1/analysis":
		msg = tivwire.AnalysisResponse{N: 10}
	default:
		http.NotFound(w, r)
		return
	}
	if strings.Contains(r.Header.Get("Accept"), tivwire.BinaryContentType) {
		b, err := tivwire.MarshalBinary(msg)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", tivwire.BinaryContentType)
		_, _ = w.Write(b)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(msg)
}

func (d *recordingDaemon) take() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	uris := d.uris
	d.uris = nil
	return uris
}

// TestQueryRequestGolden pins the exact GET request Client.Query sends
// for every kind: the path and query string the per-kind client calls
// it replaced sent (url.Values encoding, keys sorted), so daemon cache
// keys and single-shot load runs stay comparable across the change.
func TestQueryRequestGolden(t *testing.T) {
	class := tivaware.Scatter{Mod: 3, Rem: 1}
	cases := []struct {
		q    tivaware.Query
		want string
	}{
		{tivaware.Query{Kind: tivaware.KindRank, Target: 3}, "/v1/rank?target=3"},
		{tivaware.Query{Kind: tivaware.KindRank, Target: 3, K: 8}, "/v1/rank?k=8&target=3"},
		{tivaware.Query{Kind: tivaware.KindRank, Target: 3, K: 8, SeverityPenalty: 2.5}, "/v1/rank?k=8&penalty=2.5&target=3"},
		{tivaware.Query{Kind: tivaware.KindRank, Target: 3, ExcludeViolated: true}, "/v1/rank?exclude=true&target=3"},
		{tivaware.Query{Kind: tivaware.KindRank, Target: 3, Candidates: []int{5, 1, 7}}, "/v1/rank?candidates=5%2C1%2C7&target=3"},
		{tivaware.Query{Kind: tivaware.KindRank, Target: 3, K: 4, Scatter: class}, "/v1/rank?k=4&mod=3&rem=1&target=3"},
		{tivaware.Query{Kind: tivaware.KindRank, Target: 0, K: 4, Candidates: []int{9, 2}, SeverityPenalty: 1,
			ExcludeViolated: true, Scatter: class}, "/v1/rank?candidates=9%2C2&exclude=true&k=4&mod=3&penalty=1&rem=1&target=0"},
		{tivaware.Query{Kind: tivaware.KindClosest, Target: 3}, "/v1/closest?target=3"},
		{tivaware.Query{Kind: tivaware.KindClosest, Target: 3, SeverityPenalty: 0.125, Candidates: []int{4, 9}},
			"/v1/closest?candidates=4%2C9&penalty=0.125&target=3"},
		{tivaware.Query{Kind: tivaware.KindClosest, Target: 3, ExcludeViolated: true, Scatter: tivaware.Scatter{Mod: 2}},
			"/v1/closest?exclude=true&mod=2&rem=0&target=3"},
		{tivaware.Query{Kind: tivaware.KindDetour, I: 1, J: 5}, "/v1/detour?i=1&j=5"},
		{tivaware.Query{Kind: tivaware.KindDetour, I: 1, J: 5, Scatter: class}, "/v1/detour?i=1&j=5&mod=3&rem=1"},
		{tivaware.Query{Kind: tivaware.KindTop, K: 10}, "/v1/top?k=10"},
		{tivaware.Query{Kind: tivaware.KindTop, K: 6, Scatter: class}, "/v1/top?k=6&mod=3&rem=1"},
		{tivaware.Query{Kind: tivaware.KindDelay, I: 4, J: 9}, "/v1/delay?i=4&j=9"},
		{tivaware.Query{Kind: tivaware.KindAnalysis}, "/v1/analysis"},
	}
	d := &recordingDaemon{}
	ts := httptest.NewServer(d)
	defer ts.Close()
	ctx := context.Background()
	for _, binary := range []bool{false, true} {
		c := tivclient.New(ts.URL, tivclient.Options{Binary: binary})
		for _, tc := range cases {
			if _, err := c.Query(ctx, tc.q); err != nil {
				t.Errorf("binary=%v %+v: %v", binary, tc.q, err)
			}
			if got := d.take(); len(got) != 1 || got[0] != tc.want {
				t.Errorf("binary=%v %+v sent %v, want [%s]", binary, tc.q, got, tc.want)
			}
		}

		// An explicitly empty candidate list cannot be a GET parameter
		// (absent means every node): it is answered locally, never sent.
		res, err := c.Query(ctx, tivaware.Query{Kind: tivaware.KindRank, Target: 3, K: 8, Candidates: []int{}})
		if err != nil || len(res.Selections) != 0 || res.Kind != tivaware.KindRank {
			t.Errorf("binary=%v: rank over no candidates = %+v, %v; want an empty ranking", binary, res, err)
		}
		if _, err := c.Query(ctx, tivaware.Query{Kind: tivaware.KindClosest, Target: 3, Candidates: []int{}}); err == nil {
			t.Errorf("binary=%v: closest over no candidates should error", binary)
		}
		if got := d.take(); len(got) != 0 {
			t.Errorf("binary=%v: empty candidate lists reached the daemon: %v", binary, got)
		}
	}
}
