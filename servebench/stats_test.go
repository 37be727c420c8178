package main

import (
	"math"
	"testing"
)

func TestPercentileWithCounts(t *testing.T) {
	xs := make([]float64, 0, 1000)
	for i := 1000; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	d := newDist(xs)
	if got := d.median(); got != 500.5 {
		t.Errorf("median %v, want 500.5", got)
	}
	p := d.percentile(0.99)
	if math.Abs(p.Value-990.01) > 1e-9 || p.Samples != 1000 || p.Beyond != 10 {
		t.Errorf("p99 %+v, want 990.01 over 1000 samples with 10 beyond", p)
	}
	if got := d.max(); got != 1000 {
		t.Errorf("max %v, want 1000", got)
	}
	if got := newDist(nil).percentile(0.99); got.Value != 0 || got.Samples != 0 || got.Beyond != 0 {
		t.Errorf("empty p99 %+v, want zeros", got)
	}
	if got := newDist([]float64{7}).quantile(0.99); got != 7 {
		t.Errorf("single-sample p99 %v, want 7", got)
	}
}

func TestWindowQuantileReadsTheTypicalWindow(t *testing.T) {
	var xs []float64
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			v := 1.0
			if w == 2 {
				v = 50 // one window hit by a stall
			}
			if i == 99 {
				v *= 3
			}
			xs = append(xs, v)
		}
	}
	xs = append(xs, 1e9) // partial tail window: dropped
	if got := windowQuantile(xs, 100, 0.5); got != 1 {
		t.Errorf("window median %v, want 1", got)
	}
	if got := windowQuantile(xs, 100, 1); got != 3 {
		t.Errorf("window max %v, want 3", got)
	}
	if got := windowQuantile(xs[:99], 100, 0.5); got != 0 {
		t.Errorf("no full window: %v, want 0", got)
	}
}
