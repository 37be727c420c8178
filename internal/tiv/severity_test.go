package tiv

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"tivaware/internal/delayspace"
	"tivaware/internal/synth"
)

// paperTriangle is the canonical example from §3.2.1: d(A,B)=5,
// d(B,C)=5, d(C,A)=100.
func paperTriangle() *delayspace.Matrix {
	m := delayspace.New(3)
	m.Set(0, 1, 5)
	m.Set(1, 2, 5)
	m.Set(2, 0, 100)
	return m
}

func TestSeverityPaperTriangle(t *testing.T) {
	m := paperTriangle()
	// Edge (0,2) has one violation with ratio 100/10 = 10, divided by
	// |S| = 3 nodes.
	want := 10.0 / 3.0
	if got := Severity(m, 0, 2); math.Abs(got-want) > 1e-12 {
		t.Errorf("Severity(0,2) = %g, want %g", got, want)
	}
	// The short edges cause no violation.
	if got := Severity(m, 0, 1); got != 0 {
		t.Errorf("Severity(0,1) = %g, want 0", got)
	}
	if got := Severity(m, 1, 2); got != 0 {
		t.Errorf("Severity(1,2) = %g, want 0", got)
	}
}

func TestSeverityEdgeCases(t *testing.T) {
	m := paperTriangle()
	if Severity(m, 1, 1) != 0 {
		t.Error("self edge severity must be 0")
	}
	m2 := delayspace.New(3)
	m2.Set(0, 1, 5) // pair (0,2) unmeasured
	if Severity(m2, 0, 2) != 0 {
		t.Error("missing edge severity must be 0")
	}
}

func TestTriangulationRatios(t *testing.T) {
	m := paperTriangle()
	r := TriangulationRatios(m, 0, 2)
	if len(r) != 1 || r[0] != 10 {
		t.Errorf("ratios = %v, want [10]", r)
	}
	if r := TriangulationRatios(m, 0, 1); len(r) != 0 {
		t.Errorf("non-violating edge has ratios %v", r)
	}
	if r := TriangulationRatios(m, 1, 1); r != nil {
		t.Error("self edge should give nil")
	}
}

func TestViolationCount(t *testing.T) {
	m := paperTriangle()
	if got := ViolationCount(m, 0, 2); got != 1 {
		t.Errorf("ViolationCount = %d, want 1", got)
	}
	if got := ViolationCount(m, 0, 1); got != 0 {
		t.Errorf("ViolationCount = %d, want 0", got)
	}
	if ViolationCount(m, 2, 2) != 0 {
		t.Error("self edge count must be 0")
	}
}

func TestAllSeveritiesMatchesSingle(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(40, 9))
	if err != nil {
		t.Fatal(err)
	}
	all := AllSeverities(s.Matrix, Options{Workers: 2})
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			want := Severity(s.Matrix, i, j)
			if got := all.At(i, j); math.Abs(got-want) > 1e-12 {
				t.Fatalf("AllSeverities(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
	if all.N() != 40 {
		t.Errorf("N = %d", all.N())
	}
}

func TestAllSeveritiesTiny(t *testing.T) {
	all := AllSeverities(delayspace.New(2), Options{})
	if all.At(0, 1) != 0 {
		t.Error("2-node matrix cannot have violations")
	}
}

func TestMetricSpaceHasZeroSeverity(t *testing.T) {
	m := synth.Euclidean(50, 300, 4)
	all := AllSeverities(m, Options{})
	for _, v := range all.Values() {
		if v != 0 {
			t.Fatalf("metric space produced severity %g", v)
		}
	}
}

func TestValuesLength(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	all := AllSeverities(s.Matrix, Options{})
	if got := len(all.Values()); got != 20*19/2 {
		t.Errorf("Values length = %d, want %d", got, 20*19/2)
	}
}

func TestSampledSeverityApproximatesExact(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(120, 5))
	if err != nil {
		t.Fatal(err)
	}
	exact := AllSeverities(s.Matrix, Options{})
	sampled := AllSeverities(s.Matrix, Options{SampleThirdNodes: 60, Seed: 99})
	// Compare the population means: the sampled estimator is unbiased,
	// so the aggregate should be close.
	var meanE, meanS float64
	ve, vs := exact.Values(), sampled.Values()
	for i := range ve {
		meanE += ve[i]
		meanS += vs[i]
	}
	meanE /= float64(len(ve))
	meanS /= float64(len(vs))
	if meanE == 0 {
		t.Fatal("degenerate test: zero exact severity")
	}
	if rel := math.Abs(meanE-meanS) / meanE; rel > 0.35 {
		t.Errorf("sampled mean off by %.0f%% (exact %g, sampled %g)", rel*100, meanE, meanS)
	}
}

func TestWorstEdges(t *testing.T) {
	m := paperTriangle()
	all := AllSeverities(m, Options{})
	worst := all.WorstEdges(0.34) // 1 of 3 edges
	if len(worst) != 1 {
		t.Fatalf("got %d edges", len(worst))
	}
	if worst[0].I != 0 || worst[0].J != 2 {
		t.Errorf("worst edge = (%d,%d), want (0,2)", worst[0].I, worst[0].J)
	}
	// Tiny fraction still returns at least one edge.
	if got := all.WorstEdges(1e-9); len(got) != 1 {
		t.Errorf("minimum-one rule broken: %d", len(got))
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid fraction should panic")
		}
	}()
	all.WorstEdges(0)
}

func TestWorstEdgesOrdering(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(30, 2))
	if err != nil {
		t.Fatal(err)
	}
	all := AllSeverities(s.Matrix, Options{})
	worst := all.WorstEdges(1.0)
	for k := 1; k < len(worst); k++ {
		if worst[k].Delay > worst[k-1].Delay {
			t.Fatal("WorstEdges not sorted descending")
		}
	}
}

// TestTopEdgesModMatchesFullSort pins the bounded selection behind
// TopEdgesMod against the definition it replaces: every edge of the
// class, fully sorted by EdgeLess, cut to k. Severities drawn from
// {0, 0.5, 1} make most comparisons ties, so the (I, J) tie-break and
// the heap's reject-on-tie fast path decide nearly every position.
func TestTopEdgesModMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{2, 9, 20} {
		sev := &EdgeSeverities{n: n, data: make([]float64, n*n)}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := []float64{0, 0.5, 1}[rng.Intn(3)]
				sev.data[i*n+j], sev.data[j*n+i] = v, v
			}
		}
		for _, mod := range []int{0, 1, 2, 3, 7} {
			rems := []int{0, 3} // mod 0 ignores the residue
			if mod > 0 {
				rems = rems[:0]
				for rem := 0; rem < mod; rem++ {
					rems = append(rems, rem)
				}
			}
			for _, rem := range rems {
				var class []delayspace.Edge
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						if mod <= 1 || i%mod == rem {
							class = append(class, delayspace.Edge{I: i, J: j, Delay: sev.At(i, j)})
						}
					}
				}
				sort.Slice(class, func(a, b int) bool { return EdgeLess(class[a], class[b]) })
				e := len(class)
				for _, k := range []int{1, 2, 16, e - 1, e, e + 5} {
					want := class[:min(max(k, 0), e)]
					got := sev.TopEdgesMod(k, mod, rem)
					if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("n=%d mod=%d rem=%d k=%d:\n got %v\nwant %v", n, mod, rem, k, got, want)
					}
				}
			}
		}
	}
}

func TestViolatingTriangleFraction(t *testing.T) {
	m := paperTriangle()
	// The single triangle violates.
	if got := ViolatingTriangleFraction(m, 0, 0); got != 1 {
		t.Errorf("fraction = %g, want 1", got)
	}
	if got := ViolatingTriangleFraction(synth.Euclidean(15, 200, 3), 0, 0); got != 0 {
		t.Errorf("metric space fraction = %g, want 0", got)
	}
	if got := ViolatingTriangleFraction(delayspace.New(2), 0, 0); got != 0 {
		t.Errorf("2 nodes: fraction = %g", got)
	}
}

// TestInjectableRand pins the two RNG regimes of the sampled paths:
// Seed-only engines re-seed per call (each call reproduces itself),
// while an injected Options.Rand advances across calls, so a whole
// multi-call sequence replays exactly from one seeded source.
func TestInjectableRand(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(90, 6))
	if err != nil {
		t.Fatal(err)
	}
	// Seed-only: repeated sampled calls are identical.
	eng := NewEngine(Options{Seed: 3})
	a := eng.ViolatingTriangleFraction(s.Matrix, 5000)
	b := eng.ViolatingTriangleFraction(s.Matrix, 5000)
	if a != b {
		t.Errorf("Seed-only engine not reproducible per call: %g vs %g", a, b)
	}

	// Injected RNG: the sequence of results replays exactly.
	run := func() []float64 {
		e := NewEngine(Options{Rand: rand.New(rand.NewSource(9))})
		var out []float64
		for k := 0; k < 3; k++ {
			out = append(out, e.ViolatingTriangleFraction(s.Matrix, 5000))
		}
		return out
	}
	r1, r2 := run(), run()
	for k := range r1 {
		if r1[k] != r2[k] {
			t.Errorf("injected-RNG sequence diverged at call %d: %g vs %g", k, r1[k], r2[k])
		}
	}
	// ... and the RNG really advances: with violations present but not
	// universal, consecutive sampled estimates almost surely differ.
	if r1[0] == r1[1] && r1[1] == r1[2] {
		exact := NewEngine(Options{}).ViolatingTriangleFraction(s.Matrix, 0)
		if exact != 0 && exact != 1 {
			t.Errorf("injected RNG did not advance: all calls returned %g", r1[0])
		}
	}

	// Sampled severities draw from the injected source too.
	e1 := NewEngine(Options{SampleThirdNodes: 16, Rand: rand.New(rand.NewSource(4))})
	e2 := NewEngine(Options{SampleThirdNodes: 16, Rand: rand.New(rand.NewSource(4))})
	s1 := e1.AllSeverities(s.Matrix)
	s2 := e2.AllSeverities(s.Matrix)
	for i := 0; i < s1.N(); i++ {
		for j := 0; j < s1.N(); j++ {
			if s1.At(i, j) != s2.At(i, j) {
				t.Fatalf("sampled severities diverged at (%d,%d)", i, j)
			}
		}
	}
}

func TestViolatingTriangleFractionSampled(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(80, 6))
	if err != nil {
		t.Fatal(err)
	}
	exact := ViolatingTriangleFraction(s.Matrix, 0, 0)
	est := ViolatingTriangleFraction(s.Matrix, 20000, 7)
	if exact == 0 {
		t.Skip("degenerate: no violations at this seed")
	}
	if math.Abs(exact-est) > 0.05 {
		t.Errorf("sampled fraction %g too far from exact %g", est, exact)
	}
}

func TestPairDifferences(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(100, 8))
	if err != nil {
		t.Fatal(err)
	}
	sev := AllSeverities(s.Matrix, Options{})
	near, random := PairDifferences(s.Matrix, sev, 500, 11)
	if len(near) == 0 || len(random) == 0 {
		t.Fatal("no pair differences produced")
	}
	if len(near) != len(random) {
		t.Errorf("asymmetric outputs: %d vs %d", len(near), len(random))
	}
	for _, v := range append(append([]float64{}, near...), random...) {
		if v < 0 {
			t.Fatal("negative severity difference")
		}
	}
}

func TestPairDifferencesDegenerate(t *testing.T) {
	if n, r := PairDifferences(delayspace.New(3), nil, 10, 1); n != nil || r != nil {
		t.Error("tiny matrix should produce nil")
	}
}

func TestDelaySeverityPairs(t *testing.T) {
	m := paperTriangle()
	sev := AllSeverities(m, Options{})
	d, s := DelaySeverityPairs(m, sev)
	if len(d) != 3 || len(s) != 3 {
		t.Fatalf("lengths %d,%d", len(d), len(s))
	}
	// Find the 100ms edge and check its severity.
	found := false
	for k := range d {
		if d[k] == 100 {
			found = true
			if math.Abs(s[k]-10.0/3.0) > 1e-12 {
				t.Errorf("severity for 100ms edge = %g", s[k])
			}
		}
	}
	if !found {
		t.Error("100ms edge missing")
	}
}

// Property: severity is non-negative, zero on metric spaces, and
// scale-invariant (multiplying all delays by a constant preserves it).
func TestSeverityProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		m := delayspace.New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, 1+rng.Float64()*200)
			}
		}
		scaled := delayspace.New(n)
		const c = 3.7
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				scaled.Set(i, j, m.At(i, j)*c)
			}
		}
		for trial := 0; trial < 5; trial++ {
			i, j := rng.Intn(n), rng.Intn(n)
			s1 := Severity(m, i, j)
			if s1 < 0 {
				return false
			}
			s2 := Severity(scaled, i, j)
			if math.Abs(s1-s2) > 1e-9*(1+s1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the inflated edges of a synthetic space carry the
// violations — an edge with positive severity must be either inflated
// itself or longer than some two-hop path built from inflation-free
// geometry (which cannot happen), so every positive-severity edge is
// inflated.
func TestSeverityAttributionProperty(t *testing.T) {
	// Attribution is exact only with measurement noise and deflation
	// switched off: then every violated edge must be an inflated one.
	cfg := synth.DS2Like(60, 13)
	cfg.NoiseSigma = 0
	cfg.Inflation.DeflateProb = 0
	s, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := AllSeverities(s.Matrix, Options{})
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			if all.At(i, j) > 0 && !s.WasInflated(i, j) {
				t.Fatalf("uninflated edge (%d,%d) has severity %g", i, j, all.At(i, j))
			}
		}
	}
}

func TestDeflationSpreadsViolations(t *testing.T) {
	// With deflation on (and noise off), ordinary un-inflated edges
	// can violate because a deflated edge offers a shortcut; that is
	// the mechanism that makes slight TIVs pervasive.
	cfg := synth.DS2Like(60, 13)
	cfg.NoiseSigma = 0
	s, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := AllSeverities(s.Matrix, Options{})
	spread := false
	for i := 0; i < 60 && !spread; i++ {
		for j := i + 1; j < 60; j++ {
			if all.At(i, j) > 0 && !s.WasInflated(i, j) && !s.WasDeflated(i, j) {
				spread = true
				break
			}
		}
	}
	if !spread {
		t.Error("deflation did not spread violations to ordinary edges")
	}
}

func BenchmarkSeverityExact(b *testing.B) {
	s, err := synth.Generate(synth.DS2Like(200, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AllSeverities(s.Matrix, Options{})
	}
}

func BenchmarkSeveritySampled(b *testing.B) {
	s, err := synth.Generate(synth.DS2Like(200, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AllSeverities(s.Matrix, Options{SampleThirdNodes: 32, Seed: 7})
	}
}
