package main

import "testing"

func TestSelfTimeWithOverlappingShardSpans(t *testing.T) {
	parent := interval{0, 100}
	// Concurrent shard calls overlap each other, and one outlives the
	// parent; overlapping time counts once and only the part inside
	// the parent is covered.
	children := []interval{{20, 50}, {10, 40}, {60, 70}, {90, 120}, {65, 68}}
	if got := covered(parent, children); got != 60 {
		t.Errorf("covered %d, want 60 ([10,50] + [60,70] + [90,100])", got)
	}
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("self time %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children %d, want 100", got)
	}
	if got := covered(parent, []interval{{150, 200}}); got != 0 {
		t.Errorf("covered by a disjoint child %d, want 0", got)
	}
}

func TestBreakdownAddsUpAlongTheBlockingPath(t *testing.T) {
	spans := []span{
		{1, layerClient, interval{0, 1000}},
		{1, layerHandler, interval{100, 900}},
		{1, layerBackend, interval{200, 800}},
		{1, layerShard, interval{300, 500}},
		{1, layerShard, interval{350, 600}},
		{1, layerShard, interval{400, 450}},
		// A second request that hit the front cache: no backend.
		{2, layerClient, interval{2000, 2300}},
		{2, layerHandler, interval{2050, 2250}},
		// Spans of a request without a client span are dropped.
		{3, layerHandler, interval{3000, 3100}},
	}
	got := breakdown(spans)
	if len(got) != 2 {
		t.Fatalf("%d requests, want 2", len(got))
	}
	r := got[0]
	if r.callSelf != 200 || r.handlerSelf != 200 || r.backendSelf != 300 || r.shardCover != 300 {
		t.Errorf("request 1: call self %d, handler self %d, backend self %d, shard cover %d; want 200, 200, 300, 300",
			r.callSelf, r.handlerSelf, r.backendSelf, r.shardCover)
	}
	if sum := r.callSelf + r.handlerSelf + r.backendSelf + r.shardCover; sum != r.client {
		t.Errorf("blocking path sums to %d, client span %d", sum, r.client)
	}
	if r.shardCalls != 3 || skew(r.shardSpans) != 200 {
		t.Errorf("shard calls %d skew %d, want 3 and 200", r.shardCalls, skew(r.shardSpans))
	}
	c := got[1]
	if c.reached || c.handlerSelf != 200 || c.callSelf != 100 {
		t.Errorf("cache-hit request: %+v", c)
	}
}
