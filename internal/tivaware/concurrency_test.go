package tivaware

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/tiv"
)

// TestServiceConcurrentQueriesDuringUpdates is the stress test of the
// epoch redesign: 8 query goroutines run lock-free against a live
// service while one updater streams ~1000 edge updates through it.
// Every queried View must be internally consistent — its severities
// must match a fresh batch analysis of its own frozen delays, never a
// torn mix of one epoch's delays and another's severities. Run under
// -race (CI does), this also proves the query path touches no
// unsynchronized state.
func TestServiceConcurrentQueriesDuringUpdates(t *testing.T) {
	const (
		n        = 48
		nUpdates = 1000
		queriers = 8
	)
	m := holeyMatrix(n, 17, 0.15)
	svc, err := NewFromMatrix(m, Options{Live: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, queriers+1)

	checkView := func(eng *tiv.Engine, v *View) error {
		// Rebuild the view's frozen delays and re-analyze them from
		// scratch: severities, counts, and the triangle total must all
		// agree with what the view published.
		frozen := delayspace.New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if d, ok := v.Delay(i, j); ok {
					frozen.Set(i, j, d)
				}
			}
		}
		want := eng.Analyze(frozen)
		got, err := v.Analysis()
		if err != nil {
			return err
		}
		if got.ViolatingTriangles != want.ViolatingTriangles {
			t.Errorf("view seq %d: %d violating triangles, own delays give %d (torn epoch)",
				v.Seq(), got.ViolatingTriangles, want.ViolatingTriangles)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if math.Abs(got.Severities.At(i, j)-want.Severities.At(i, j)) > 1e-9 {
					t.Errorf("view seq %d: severity (%d,%d) = %g, own delays give %g (torn epoch)",
						v.Seq(), i, j, got.Severities.At(i, j), want.Severities.At(i, j))
					return nil
				}
				if got.Counts.At(i, j) != want.Counts.At(i, j) {
					t.Errorf("view seq %d: count (%d,%d) = %d, own delays give %d (torn epoch)",
						v.Seq(), i, j, got.Counts.At(i, j), want.Counts.At(i, j))
					return nil
				}
			}
		}
		return nil
	}

	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + q)))
			eng := tiv.NewEngine(tiv.Options{Workers: 1})
			lastSeq := uint64(0)
			for !done.Load() {
				v, err := svc.View(ctx)
				if err != nil {
					errs <- err
					return
				}
				if v.Seq() < lastSeq {
					t.Errorf("querier %d: epoch seq went backwards (%d after %d)", q, v.Seq(), lastSeq)
					return
				}
				lastSeq = v.Seq()
				if err := checkView(eng, v); err != nil {
					errs <- err
					return
				}
				// Exercise the query surface against the same pinned
				// epoch; invariants must hold regardless of updates.
				target := rng.Intn(n)
				res := queryOne(ctx, v, Query{Kind: KindRank, Target: target, SeverityPenalty: 2})
				if res.Err != nil {
					errs <- res.Err
					return
				}
				ranked := res.Selections
				for k := 1; k < len(ranked); k++ {
					if ranked[k].Score < ranked[k-1].Score {
						t.Errorf("querier %d: rank order violated at %d", q, k)
						return
					}
				}
				i, j := rng.Intn(n), rng.Intn(n)
				if i != j {
					res := queryOne(ctx, v, Query{Kind: KindDetour, I: i, J: j})
					if res.Err != nil {
						errs <- res.Err
						return
					}
					d := res.Detour
					if d.Gain < 0 {
						t.Errorf("querier %d: negative detour gain %g", q, d.Gain)
						return
					}
				}
				// And the unpinned service calls, for race coverage of
				// the epoch-refresh path.
				svc.Severities()
				svc.TopEdges(3)
			}
		}(q)
	}

	rng := rand.New(rand.NewSource(7))
	for k := 0; k < nUpdates; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		rtt := 1 + rng.Float64()*200
		if rng.Float64() < 0.05 {
			rtt = delayspace.Missing // exercise removals too
		}
		if _, err := svc.ApplyUpdate(i, j, rtt); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the dust settles the final epoch must equal a fresh batch
	// analysis of the live matrix.
	final, err := svc.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	fresh := tiv.NewEngine(tiv.Options{Workers: 1}).Analyze(m)
	if final.ViolatingTriangles != fresh.ViolatingTriangles {
		t.Errorf("final epoch triangles %d, rescan %d", final.ViolatingTriangles, fresh.ViolatingTriangles)
	}
}

// TestConcurrentBatchServiceQueries drives the engine-provider path
// concurrently: queries race with out-of-band version bumps coalesced
// by the epoch builder.
func TestConcurrentBatchServiceQueries(t *testing.T) {
	m := genSpace(t, 60, 3)
	svc, err := NewFromMatrix(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for q := 0; q < 8; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if _, err := svc.ClosestNode(ctx, (q+k)%svc.N(), QueryOptions{SeverityPenalty: 2}); err != nil {
					t.Errorf("querier %d: %v", q, err)
					return
				}
				if _, err := svc.Analysis(); err != nil {
					t.Errorf("querier %d: %v", q, err)
					return
				}
				svc.ViolatingTriangleFraction(0)
			}
		}(q)
	}
	wg.Wait()
}

// TestViewPinsEpoch verifies a View keeps answering from the epoch it
// was taken at while the service moves on.
func TestViewPinsEpoch(t *testing.T) {
	m := triangleMatrix()
	svc, err := NewFromMatrix(m, Options{Live: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v, err := svc.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.ViolatingTriangleFraction() != 0 {
		t.Fatal("baseline triangle should be violation-free")
	}
	d0, _ := v.Delay(0, 1)
	if _, err := svc.ApplyUpdate(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	// The pinned view still answers from before the update...
	if d, _ := v.Delay(0, 1); d != d0 {
		t.Errorf("pinned view delay moved: %g -> %g", d0, d)
	}
	if v.ViolatingTriangleFraction() != 0 {
		t.Error("pinned view observed a later violation")
	}
	// ...while a fresh view (and the service) see the new epoch.
	v2, err := svc.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v2.ViolatingTriangleFraction() == 0 {
		t.Error("fresh view missed the update")
	}
	if v2.Seq() <= v.Seq() {
		t.Errorf("epoch seq did not advance: %d then %d", v.Seq(), v2.Seq())
	}
}
