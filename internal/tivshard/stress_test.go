package tivshard_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"tivaware/internal/tivaware"
	"tivaware/internal/tivd"
	"tivaware/internal/tivshard"
	"tivaware/internal/tivshard/testcluster"
)

type edgeKey struct{ i, j int }

func key(i, j int) edgeKey {
	if j < i {
		i, j = j, i
	}
	return edgeKey{i, j}
}

// violatedOwnedSet reads one shard's current violated-edge set,
// restricted to the edges that shard owns under the round-robin
// partition (edge (i,j), i<j, owned by shard i%K).
func violatedOwnedSet(t *testing.T, svc *tivaware.Service, shard, shards int) map[edgeKey]bool {
	t.Helper()
	an, err := svc.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	n := svc.N()
	set := make(map[edgeKey]bool)
	for i := 0; i < n; i++ {
		if i%shards != shard {
			continue
		}
		for j := i + 1; j < n; j++ {
			if an.Counts.At(i, j) > 0 {
				set[edgeKey{i, j}] = true
			}
		}
	}
	return set
}

// TestConcurrentUpdatesFanInAccounting is the -race stress test of
// the update plane: goroutines hammer ApplyUpdate through the
// gateway — landing on edges owned by different shards concurrently —
// while a fan-in subscriber checks each shard stream's violated-edge
// deltas for exactness. Per shard stream, starting from the baseline
// violated set, every NewlyViolated edge must be absent from the
// running set (a present one would mean a duplicated or out-of-order
// delta) and every Cleared edge present (an absent one, a lost
// delta); after the cluster quiesces each replayed set must equal the
// shard's actual owned violated set.
func TestConcurrentUpdatesFanInAccounting(t *testing.T) {
	const (
		shards  = 3
		n       = 28
		writers = 8
		updates = 40
	)
	c, err := testcluster.Start(testcluster.Config{
		N:      n,
		Shards: shards,
		Live:   true,
		// The accounting requires a lossless stream: buffer far beyond
		// the worst-case event count so no subscriber is overflow-
		// disconnected mid-test.
		ServerOptions:  tivd.Options{SubscribeBuffer: 16384},
		GatewayOptions: tivshard.Options{ResubscribeDelay: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Baseline violated sets, per shard, before any update flows.
	baseline := make([]map[edgeKey]bool, shards)
	for s := 0; s < shards; s++ {
		baseline[s] = violatedOwnedSet(t, c.Shards[s].Service, s, shards)
	}

	var mu sync.Mutex
	streams := make([][]tivshard.ShardChangeSet, shards)
	torn := false
	cancel, err := c.Gateway.Subscribe(func(ev tivshard.ShardChangeSet) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Changes.Rescan {
			torn = true
			return
		}
		streams[ev.Shard] = append(streams[ev.Shard], ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for u := 0; u < updates; u++ {
				i := rng.Intn(n)
				j := rng.Intn(n)
				if i == j {
					j = (j + 1) % n
				}
				// Extreme swings so violation flips actually happen.
				rtt := 1 + rng.Float64()*4
				if rng.Intn(2) == 0 {
					rtt = 500 + rng.Float64()*2000
				}
				if _, err := c.Gateway.ApplyUpdate(ctx, i, j, rtt); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Concurrent readers keep the query path racing the update path.
	readCtx, stopReads := context.WithCancel(ctx)
	var readWG sync.WaitGroup
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for q := 0; readCtx.Err() == nil; q++ {
			_, _ = c.Gateway.QueryBatch(readCtx, []tivaware.Query{
				{Kind: tivaware.KindClosest, Target: q % n, SeverityPenalty: 2},
				{Kind: tivaware.KindTop, K: 5},
			})
		}
	}()
	wg.Wait()
	stopReads()
	readWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every ApplyUpdate returned only after all replicas applied it,
	// so the shard states are final; the fan-in may still be in
	// flight. Poll until each shard's replayed stream converges on
	// its actual violated set.
	finals := make([]map[edgeKey]bool, shards)
	for s := 0; s < shards; s++ {
		finals[s] = violatedOwnedSet(t, c.Shards[s].Service, s, shards)
	}
	deadline := time.Now().Add(15 * time.Second)
	var lastErr error
	for {
		lastErr = replayAndCompare(streams, baseline, finals, &mu, &torn)
		if lastErr == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if lastErr != nil {
		t.Fatal(lastErr)
	}

	mu.Lock()
	total := 0
	for _, evs := range streams {
		total += len(evs)
	}
	mu.Unlock()
	if total == 0 {
		t.Fatal("no violated-edge deltas arrived; the stress produced no flips")
	}
}

// replayAndCompare replays each shard's delta stream from its
// baseline and compares with the shard's final state, failing on any
// duplicated or lost delta. Events are replayed in monitor-version
// order: the version stamps totally order a shard's applies, while
// wire delivery of changesets from *racing* updates may interleave
// slightly out of apply order (the service fans out after releasing
// its apply lock — documented in tivaware.Service.Subscribe).
func replayAndCompare(streams [][]tivshard.ShardChangeSet, baseline, finals []map[edgeKey]bool, mu *sync.Mutex, torn *bool) error {
	mu.Lock()
	defer mu.Unlock()
	if *torn {
		return fmt.Errorf("a shard stream tore (overflow/disconnect); raise SubscribeBuffer")
	}
	for s := range streams {
		events := append([]tivshard.ShardChangeSet(nil), streams[s]...)
		sort.SliceStable(events, func(a, b int) bool {
			return events[a].Changes.Version < events[b].Changes.Version
		})
		for evIdx := 1; evIdx < len(events); evIdx++ {
			if events[evIdx].Changes.Version == events[evIdx-1].Changes.Version {
				return fmt.Errorf("shard %d: two events share monitor version %d (duplicated change set)", s, events[evIdx].Changes.Version)
			}
		}
		set := make(map[edgeKey]bool, len(baseline[s]))
		for e := range baseline[s] {
			set[e] = true
		}
		for evIdx, ev := range events {
			for _, e := range ev.Changes.NewlyViolated {
				k := key(e.I, e.J)
				if set[k] {
					return fmt.Errorf("shard %d event %d: duplicated NewlyViolated delta for edge (%d,%d)", s, evIdx, e.I, e.J)
				}
				set[k] = true
			}
			for _, e := range ev.Changes.Cleared {
				k := key(e.I, e.J)
				if !set[k] {
					return fmt.Errorf("shard %d event %d: Cleared delta for edge (%d,%d) that was not violated (lost or duplicated delta)", s, evIdx, e.I, e.J)
				}
				delete(set, k)
			}
		}
		if len(set) != len(finals[s]) {
			return fmt.Errorf("shard %d: replayed violated set has %d edges, shard state has %d", s, len(set), len(finals[s]))
		}
		for e := range finals[s] {
			if !set[e] {
				return fmt.Errorf("shard %d: replayed set is missing violated edge (%d,%d)", s, e.i, e.j)
			}
		}
	}
	return nil
}
