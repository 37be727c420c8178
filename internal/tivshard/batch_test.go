package tivshard_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivshard"
	"tivaware/internal/tivshard/testcluster"
)

// The batch-path acceptance bar: Gateway.QueryBatch must agree with
// the monolith's QueryBatch exactly — same merge comparators, same
// per-query error surface — for every query kind, with and without
// explicit residue restrictions, at every shard count, and the
// agreement must survive a killed shard (replica failover) without
// widening any tolerance.

// batchQueries is the mixed batch the differential runs: every kind,
// scattered and explicitly-routed variants, plus two per-query error
// cases (out-of-range target, unsupported kind).
func batchQueries(n int) []tivaware.Query {
	return []tivaware.Query{
		{Kind: tivaware.KindRank, Target: 0},
		{Kind: tivaware.KindRank, Target: 3, K: 5, SeverityPenalty: 2.5},
		{Kind: tivaware.KindRank, Target: n - 1, SeverityPenalty: 1, ExcludeViolated: true},
		{Kind: tivaware.KindRank, Target: 0, K: 4, Candidates: []int{n - 1, 3, 17, 8, 21}, SeverityPenalty: 2},
		{Kind: tivaware.KindRank, Target: 2, Scatter: tivaware.Scatter{Mod: 2, Rem: 1}},
		{Kind: tivaware.KindClosest, Target: 7, SeverityPenalty: 1.5},
		{Kind: tivaware.KindClosest, Target: n - 1},
		{Kind: tivaware.KindDetour, I: 1, J: n - 1},
		{Kind: tivaware.KindDetour, I: 10, J: 20, Scatter: tivaware.Scatter{Mod: 3, Rem: 0}},
		{Kind: tivaware.KindTop, K: 10},
		{Kind: tivaware.KindTop, K: 6, Scatter: tivaware.Scatter{Mod: 2, Rem: 0}},
		{Kind: tivaware.KindDelay, I: 4, J: 9},
		{Kind: tivaware.KindDelay, I: 9, J: 4},
		{Kind: tivaware.KindAnalysis},
		{Kind: tivaware.KindRank, Target: n + 50}, // per-query error
		{Kind: "bogus"}, // per-query error
	}
}

// assertBatchAgreement issues the mixed batch against both planes and
// requires exact equality: payloads with ==-level DeepEqual, failures
// by presence on both sides (the monolith speaks tivaware validation
// errors, the gateway may wrap them in wire envelopes — the contract
// is that they fail the same queries, not that they spell the same
// message).
func assertBatchAgreement(t *testing.T, mono *tivaware.Service, gw *tivshard.Gateway) {
	t.Helper()
	ctx := context.Background()
	queries := batchQueries(mono.N())

	want, err := mono.QueryBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gw.QueryBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("gateway batch returned %d results, monolith %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Kind != w.Kind {
			t.Errorf("query %d: gateway kind %q, monolith kind %q", i, g.Kind, w.Kind)
		}
		if (w.Err != nil) != (g.Err != nil) {
			t.Errorf("query %d (%s): gateway err %v, monolith err %v", i, queries[i].Kind, g.Err, w.Err)
			continue
		}
		if w.Err != nil {
			continue
		}
		if w.Kind == tivaware.KindAnalysis {
			// Version counters differ by plane (primary source vs
			// cluster-agreed monitor version); the triangle census is
			// the exactness witness.
			if g.Analysis.N != w.Analysis.N ||
				g.Analysis.ViolatingTriangles != w.Analysis.ViolatingTriangles ||
				g.Analysis.Triangles != w.Analysis.Triangles {
				t.Errorf("analysis: gateway %+v, monolith %+v", g.Analysis, w.Analysis)
			}
			continue
		}
		w.Err, g.Err = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("query %d (%s): gateway %+v, monolith %+v", i, queries[i].Kind, g, w)
		}
	}
}

// TestGatewayBatchMatchesMonolith is the batch-path twin of
// TestGatewayMatchesMonolith: one scatter-gather /v1/batch round per
// shard must land on exactly the answers of issuing the queries
// against a monolithic service.
func TestGatewayBatchMatchesMonolith(t *testing.T) {
	for _, k := range shardCounts {
		k := k
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			t.Parallel()
			c, mono := diffCluster(t, k, false)
			assertBatchAgreement(t, mono, c.Gateway)
		})
	}
}

// TestGatewayBatchSurvivesKilledShard: every shard is a full replica,
// so one dead shard must not change a single batch answer — the
// class sub-batch fails over — and when every replica is dead, each
// query fails individually with a retryable unavailable envelope
// while the batch call itself still returns.
func TestGatewayBatchSurvivesKilledShard(t *testing.T) {
	cfg := synth.DS2Like(45, 5)
	cfg.MissingFrac = 0.08
	sp, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := testcluster.Start(testcluster.Config{
		Matrix:  sp.Matrix,
		Shards:  3,
		Workers: 1,
		GatewayOptions: tivshard.Options{
			Retry:         tivshard.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
			ProbeInterval: 20 * time.Millisecond,
			ProbeTimeout:  time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	mono, err := c.NewMonolith()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	c.KillShard(1)
	assertBatchAgreement(t, mono, c.Gateway)

	c.KillShard(0)
	c.KillShard(2)
	res, err := c.Gateway.QueryBatch(ctx, batchQueries(c.Matrix.N())[:6])
	if err != nil {
		t.Fatalf("batch call against a dead cluster should degrade per query, got call error %v", err)
	}
	for i, r := range res {
		if r.Err == nil {
			t.Errorf("query %d answered with every replica dead: %+v", i, r)
			continue
		}
		if !tivclient.IsRetryable(r.Err) {
			t.Errorf("query %d: dead-cluster error %v is not retryable", i, r.Err)
		}
	}

	// Restart everything and let the prober readmit the reborn
	// shards; no updates ran, so the pristine replicas are
	// bit-identical to the monolith and agreement must return whole.
	for s := 0; s < 3; s++ {
		if err := c.RestartShard(s); err != nil {
			t.Fatal(err)
		}
	}
	waitStatus(t, c.Gateway, "ok", 10*time.Second)
	assertBatchAgreement(t, mono, c.Gateway)
}
