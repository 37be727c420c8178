package main

import (
	"context"
	"testing"
	"time"
)

// A target that stalls must raise the latency of every request
// scheduled while it stalled, not just its own: the generator times
// from the schedule, so requests it could not send on time are charged
// for the wait (the coordinated-omission trap of timing from the
// actual send).
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		n        = 40
		interval = 5 * time.Millisecond
		stallAt  = 5
		stall    = 150 * time.Millisecond
	)
	res := openLoop(context.Background(), n, interval, 1, time.Sleep, func(i int) error {
		if i == stallAt {
			time.Sleep(stall)
		}
		return nil
	})
	if len(res.latMS) != n {
		t.Fatalf("%d latencies, want %d", len(res.latMS), n)
	}
	if got := res.latMS[stallAt]; got < ms(stall) {
		t.Errorf("stalled request latency %.1f ms, want >= %.1f", got, ms(stall))
	}
	// Request stallAt+k was due k intervals after the stalled one and
	// could not be sent before the stall ended.
	for k := 1; k <= 10; k++ {
		want := ms(stall - time.Duration(k)*interval)
		if got := res.latMS[stallAt+k]; got < want {
			t.Errorf("request %d scheduled during the stall: latency %.1f ms, want >= %.1f", stallAt+k, got, want)
		}
		if got := res.lagMS[stallAt+k]; got < want {
			t.Errorf("request %d: send lag %.1f ms, want >= %.1f", stallAt+k, got, want)
		}
	}
	if res.latMS[0] > ms(stall)/2 {
		t.Errorf("request before the stall: latency %.1f ms, want well under the stall", res.latMS[0])
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	res := openLoop(context.Background(), 10, time.Millisecond, 2, time.Sleep, func(i int) error {
		if i%5 == 0 {
			return context.DeadlineExceeded
		}
		return nil
	})
	failed := 0
	for i, f := range res.failed {
		if f {
			failed++
			if res.latMS[i] != ms(failLatency) {
				t.Errorf("failed request %d: latency %.1f ms, want the failure latency %.1f", i, res.latMS[i], ms(failLatency))
			}
		}
	}
	if failed != 2 {
		t.Errorf("%d failures, want 2", failed)
	}
}

func TestClosedLoopWindows(t *testing.T) {
	res := closedLoop(context.Background(), 2, 200*time.Millisecond, 50*time.Millisecond, func(int) (int, error) {
		time.Sleep(time.Millisecond)
		return 3, nil
	})
	if len(res.windowRates) != 4 {
		t.Fatalf("%d windows, want 4", len(res.windowRates))
	}
	if res.ops == 0 || res.ops%3 != 0 || res.failed != 0 {
		t.Errorf("ops %d failed %d, want a positive multiple of 3 and no failures", res.ops, res.failed)
	}
	for _, r := range res.windowRates {
		if r <= 0 {
			t.Errorf("window rate %v, want positive", r)
		}
	}
}
