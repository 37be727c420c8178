package main

import (
	"context"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// openResult is one open-loop phase. Every slice is indexed by request.
type openResult struct {
	latMS  []float64 // scheduled send to completion (failures count as failLatency)
	lagMS  []float64 // scheduled send to the moment a worker actually sent it
	failed []bool
	wall   time.Duration
}

// failLatency is the latency a failed request contributes: a request
// that fails misses every latency limit.
const failLatency = 10 * time.Second

// openLoop sends n requests on a fixed schedule, one every interval,
// whatever the target does: request i is due at start + i×interval.
// Latency is measured from the due time, not from the actual send, so
// a stall that delays later sends is charged to every request it
// delayed (no coordinated omission). workers bounds the requests in
// flight; when all are busy the dispatcher waits, and that wait shows
// up both in latency and in send lag. sleep waits for the next due
// time (nanosleep in production; tests inject their own).
func openLoop(ctx context.Context, n int, interval time.Duration, workers int, sleep func(time.Duration), call func(i int) error) openResult {
	res := openResult{latMS: make([]float64, n), lagMS: make([]float64, n), failed: make([]bool, n)}
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job) // unbuffered: a full worker pool blocks the dispatcher
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				sent := time.Now()
				err := call(j.i)
				done := time.Now()
				res.lagMS[j.i] = ms(sent.Sub(j.due))
				if err != nil {
					res.failed[j.i] = true
					done = j.due.Add(failLatency)
				}
				res.latMS[j.i] = ms(done.Sub(j.due))
			}
		}()
	}

	// The dispatcher owns an OS thread so nanosleep wakes it directly:
	// the runtime's timers wake up to a millisecond late on Linux,
	// which at 1,000 req/s would swamp the latencies being measured.
	runtime.LockOSThread()
	start := time.Now()
	sent := 0
dispatch:
	for ; sent < n; sent++ {
		due := start.Add(time.Duration(sent) * interval)
		if d := time.Until(due); d > 0 {
			sleep(d)
		}
		select {
		case jobs <- job{sent, due}:
		case <-ctx.Done():
			break dispatch
		}
	}
	runtime.UnlockOSThread()
	close(jobs)
	wg.Wait()
	res.wall = time.Since(start)
	res.latMS, res.lagMS, res.failed = res.latMS[:sent], res.lagMS[:sent], res.failed[:sent]
	return res
}

// nanosleep sleeps on the calling OS thread, resuming after signals.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedResult is one closed-loop phase.
type closedResult struct {
	ops, failed int
	// windowRates holds completed operations per second in each full
	// window of the phase.
	windowRates []float64
	wall        time.Duration
}

// closedLoop runs callers goroutines for dur, each sending its next
// request only once the previous one answered. call returns how many
// operations the request carried.
func closedLoop(ctx context.Context, callers int, dur, window time.Duration, call func(caller int) (int, error)) closedResult {
	type done struct {
		at     time.Duration
		weight int
	}
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]done, callers)
	fails := make([]int, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				wgt, err := call(c)
				if err != nil {
					fails[c]++
					continue
				}
				per[c] = append(per[c], done{time.Since(start), wgt})
			}
		}()
	}
	wg.Wait()
	res := closedResult{wall: time.Since(start)}
	nw := int(dur / window)
	counts := make([]int, nw)
	for c := range per {
		res.failed += fails[c]
		for _, d := range per[c] {
			res.ops += d.weight
			if w := int(d.at / window); w < nw {
				counts[w] += d.weight
			}
		}
	}
	for _, n := range counts {
		res.windowRates = append(res.windowRates, float64(n)/window.Seconds())
	}
	return res
}
