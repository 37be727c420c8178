package tivshard_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"tivaware/internal/synth"
	"tivaware/internal/tivd"
	"tivaware/internal/tivshard/testcluster"
)

// TestGatewayGETMatchesMonolithGET drives every GET query endpoint of
// a tivd fronting a gateway and of a tivd fronting the monolith over
// the same matrix. The gateway answers GETs through its batch merges,
// so this pins the single-shot wire surface of the sharded plane:
// status, taxonomy code and decoded body must be equal. Epoch stamps
// (gateway generation vs service epoch) and the analysis version
// (cluster-agreed vs primary source) are plane-local counters and are
// left out, as are error message texts, which name the layer that
// rejected the query.
func TestGatewayGETMatchesMonolithGET(t *testing.T) {
	cfg := synth.DS2Like(45, 5)
	cfg.MissingFrac = 0.08
	sp, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := sp.Matrix.N()
	cases := []string{
		"/v1/rank?target=0",
		"/v1/rank?target=3&k=5&penalty=2.5",
		fmt.Sprintf("/v1/rank?target=%d&penalty=1&exclude=true", n-1),
		fmt.Sprintf("/v1/rank?target=0&k=4&penalty=2&candidates=%d,3,17,8,21", n-1),
		"/v1/rank?target=2&mod=2&rem=1",
		"/v1/closest?target=7&penalty=1.5",
		fmt.Sprintf("/v1/closest?target=%d", n-1),
		fmt.Sprintf("/v1/detour?i=1&j=%d", n-1),
		"/v1/detour?i=10&j=20&mod=3&rem=0",
		"/v1/top?k=10",
		"/v1/top?k=6&mod=2&rem=0",
		"/v1/delay?i=4&j=9",
		"/v1/delay?i=9&j=4",
		"/v1/analysis",
		// Failures: out-of-range pairs and targets, bad residues, and
		// a closest query with no eligible candidate.
		fmt.Sprintf("/v1/delay?i=0&j=%d", n+5),
		"/v1/delay?i=-1&j=2",
		fmt.Sprintf("/v1/rank?target=%d", n+5),
		"/v1/rank?target=0&mod=-2",
		"/v1/rank?target=0&mod=3&rem=5",
		"/v1/closest?target=0&mod=2&rem=-1",
		"/v1/detour?i=0&j=1&mod=3&rem=-2",
		"/v1/top?k=5&mod=4&rem=-1",
		"/v1/detour?i=4&j=4",
		"/v1/closest?target=0&candidates=0",
		"/v1/rank?target=0&k=0",
		"/v1/rank?target=0&penalty=inf",
		"/v1/rank?target=5&k=3&penalty=-inf",
		"/v1/closest?target=7&penalty=nan",
	}
	for _, k := range []int{1, 3} {
		k := k
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			c, err := testcluster.Start(testcluster.Config{Matrix: sp.Matrix, Shards: k, Workers: 1, ServeGateway: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			mono, err := c.NewMonolith()
			if err != nil {
				t.Fatal(err)
			}
			srv, err := tivd.New(mono, tivd.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(func() {
				srv.Close()
				ts.Close()
			})
			for _, path := range cases {
				wantStatus, want := getDecoded(t, ts.URL+path)
				gotStatus, got := getDecoded(t, c.GatewayURL+path)
				if gotStatus != wantStatus || !reflect.DeepEqual(got, want) {
					t.Errorf("GET %s: gateway HTTP %d %v, monolith HTTP %d %v", path, gotStatus, got, wantStatus, want)
				}
			}
		})
	}
}

// getDecoded issues one GET and decodes its JSON body generically,
// dropping the plane-local fields: epoch and the analysis version on
// a success, the message text on an error envelope.
func getDecoded(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("GET %s: HTTP %d body %q does not decode: %v", url, resp.StatusCode, raw, err)
	}
	delete(body, "epoch")
	if resp.StatusCode != http.StatusOK {
		if body["code"] == nil {
			t.Fatalf("GET %s: HTTP %d without a taxonomy code: %q", url, resp.StatusCode, raw)
		}
		delete(body, "error")
	} else if _, ok := body["violating_triangles"]; ok {
		delete(body, "version")
	}
	return resp.StatusCode, body
}
