package main

import (
	"math"
	"sort"
)

// dist is a sorted sample of one measured quantity.
type dist []float64

// newDist copies and sorts xs.
func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// quantile returns the q-quantile by linear interpolation between the
// closest ranks (the definition numpy and Python's "inclusive" method
// use); 0 for an empty sample.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	if q <= 0 {
		return d[0]
	}
	if q >= 1 {
		return d[len(d)-1]
	}
	pos := q * float64(len(d)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(d) {
		return d[lo]
	}
	frac := pos - float64(lo)
	return d[lo] + frac*(d[lo+1]-d[lo])
}

func (d dist) median() float64 { return d.quantile(0.5) }

func (d dist) max() float64 {
	if len(d) == 0 {
		return 0
	}
	return d[len(d)-1]
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range d {
		s += x
	}
	return s / float64(len(d))
}

// beyond counts the samples strictly above the q-quantile: a tail
// percentile is only worth reporting when at least ten samples lie
// beyond it.
func (d dist) beyond(q float64) int {
	v := d.quantile(q)
	i := sort.Search(len(d), func(i int) bool { return d[i] > v })
	return len(d) - i
}

// percentile is a reported tail value with the counts behind it.
type percentile struct {
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`
}

func (d dist) percentile(q float64) percentile {
	return percentile{Value: d.quantile(q), Samples: len(d), Beyond: d.beyond(q)}
}

// windowQuantile splits xs, in schedule order, into consecutive
// windows of size samples (a short tail is dropped) and returns the
// median over windows of each window's q-quantile; 0 when xs holds no
// full window. A burst of CPU steal inside one window moves that
// window's figure only, so the result reads the typical stretch of the
// run rather than its luckiest or unluckiest one.
func windowQuantile(xs []float64, size int, q float64) float64 {
	var per []float64
	for lo := 0; lo+size <= len(xs); lo += size {
		per = append(per, newDist(xs[lo:lo+size]).quantile(q))
	}
	return newDist(per).median()
}
