package main

import (
	"fmt"
	"math"

	"tivaware/internal/delayspace"
	"tivaware/internal/tivaware"
)

// Float tolerances for comparing served answers with the in-process
// reference. Static daemons analyse the same matrix with the same
// worker count as the reference, so their floats agree to rounding;
// a live daemon reaches its final severities through incremental
// monitor deltas applied in arrival order, which rounds differently
// from the reference's fresh analysis.
const (
	tolStatic = 1e-9
	tolLive   = 1e-6
)

// closeTo reports whether a and b agree within a relative tolerance
// (absolute below magnitude 1).
func closeTo(a, b, tol float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// compareResult checks one served answer against the reference
// answer to the same query: node ids and their order must match
// exactly, floats within tol.
func compareResult(q tivaware.Query, got, want tivaware.Result, tol float64) error {
	if got.Err != nil || want.Err != nil {
		return fmt.Errorf("%s: served error %v, reference error %v", q.Kind, got.Err, want.Err)
	}
	if got.Kind != q.Kind {
		return fmt.Errorf("%s: answered as kind %q", q.Kind, got.Kind)
	}
	switch q.Kind {
	case tivaware.KindRank, tivaware.KindClosest:
		if len(got.Selections) != len(want.Selections) || got.Truncated != want.Truncated {
			return fmt.Errorf("%s target %d: %d selections (truncated %v), reference %d (truncated %v)",
				q.Kind, q.Target, len(got.Selections), got.Truncated, len(want.Selections), want.Truncated)
		}
		for k, g := range got.Selections {
			w := want.Selections[k]
			if g.Node != w.Node || g.Violated != w.Violated || g.Violations != w.Violations ||
				!closeTo(g.Delay, w.Delay, tol) || !closeTo(g.Severity, w.Severity, tol) || !closeTo(g.Score, w.Score, tol) {
				return fmt.Errorf("%s target %d position %d: served %+v, reference %+v", q.Kind, q.Target, k, g, w)
			}
		}
	case tivaware.KindDetour:
		g, w := got.Detour, want.Detour
		if g.I != w.I || g.J != w.J || g.Via != w.Via ||
			!closeTo(g.Direct, w.Direct, tol) || !closeTo(g.ViaDelay, w.ViaDelay, tol) || !closeTo(g.Gain, w.Gain, tol) {
			return fmt.Errorf("detour (%d,%d): served %+v, reference %+v", q.I, q.J, g, w)
		}
	case tivaware.KindTop:
		if err := compareEdges(got.Edges, want.Edges, tol); err != nil {
			return fmt.Errorf("top %d: %w", q.K, err)
		}
	case tivaware.KindDelay:
		if got.DelayOK != want.DelayOK || !closeTo(got.Delay, want.Delay, tol) {
			return fmt.Errorf("delay (%d,%d): served %v/%v, reference %v/%v", q.I, q.J, got.Delay, got.DelayOK, want.Delay, want.DelayOK)
		}
	default:
		return fmt.Errorf("unexpected query kind %q", q.Kind)
	}
	return nil
}

func compareEdges(got, want []delayspace.Edge, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d edges, reference %d", len(got), len(want))
	}
	for k, g := range got {
		w := want[k]
		if g.I != w.I || g.J != w.J || !closeTo(g.Delay, w.Delay, tol) {
			return fmt.Errorf("edge %d: served %+v, reference %+v", k, g, w)
		}
	}
	return nil
}

// sampled is one served answer kept for checking after the timed
// phase, so the reference's own compute never competes with the load.
type sampled struct {
	queries []tivaware.Query
	results []tivaware.Result
}
