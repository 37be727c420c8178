package main

import (
	"math/rand"
	"sort"
	"sync"

	"tivaware/internal/tivaware"
)

// op is one request the generator sends: a query batch, or (when
// update is set) one edge measurement written with ApplyUpdate.
type op struct {
	queries []tivaware.Query
	update  bool
	i, j    int
	rtt     float64
}

// weight returns how many operations the request counts as.
func (o *op) weight() int {
	if o.update {
		return 1
	}
	return len(o.queries)
}

// slot is one position of a workload's kind cycle.
type slot string

const (
	slotRank    slot = "rank"
	slotClosest slot = "closest"
	slotDetour  slot = "detour"
	slotTop     slot = "top"
	slotDelay   slot = "delay"
	slotUpdate  slot = "update"
)

// workload is one traffic mix against one daemon topology.
type workload struct {
	name string
	why  string

	n        int  // matrix node count
	shards   int  // 0 = one monolithic tivd; else shard daemons behind a gateway
	cacheOff bool // tivd -cache -1 on the front daemon
	frames   bool // client over the framed transport; else HTTP with the binary codec
	live     bool // tivd -live: the stream writes

	rate  float64 // open-loop requests per second
	batch int     // queries per request (1 = single-query requests)
	// cycle fixes the kind mix: operation k of the stream has kind
	// cycle[k % len(cycle)], so every window of the stream carries the
	// same mix and per-request cost does not drift with the seed.
	cycle []slot

	rankK      int
	candidates int     // explicit rank/closest candidate list size; 0 = all nodes
	penalty    float64 // severity penalty on rank/closest
	topK       int
}

// frontArgs are the front daemon's flags beyond its listeners.
func (w *workload) frontArgs() []string {
	var args []string
	if w.cacheOff {
		args = append(args, "-cache", "-1")
	}
	if w.live {
		args = append(args, "-live")
	}
	return args
}

var workloads = []*workload{
	{
		name:     "mono-uncached",
		why:      "one tivd with the query cache off, 16-query framed batches: every query runs the tivaware/tiv compute path",
		n:        200,
		cacheOff: true,
		frames:   true,
		rate:     200,
		batch:    16,
		cycle:    []slot{slotRank, slotClosest, slotDetour, slotRank, slotTop, slotRank, slotClosest, slotDetour, slotRank},
		rankK:    8,
		penalty:  1,
		topK:     16,
	},
	{
		name:       "gateway-fanout",
		why:        "3 shard tivd behind a gateway, single framed queries with unique candidate lists: scatter, merge and transport dominate",
		n:          200,
		shards:     3,
		frames:     true,
		rate:       1000,
		batch:      1,
		cycle:      []slot{slotRank, slotClosest, slotDetour, slotRank, slotTop, slotRank, slotClosest, slotDetour, slotRank},
		rankK:      4,
		candidates: 16,
		penalty:    1,
		topK:       16,
	},
	{
		name:    "live-churn",
		why:     "one live tivd over HTTP binary, 1 write per 10 ops: copy-on-write epoch builds, stale cache and the monitor delta path",
		n:       200,
		live:    true,
		rate:    1000,
		batch:   1,
		cycle:   []slot{slotDelay, slotClosest, slotDelay, slotDetour, slotUpdate, slotDelay, slotTop, slotClosest, slotDelay, slotDetour},
		penalty: 1,
		topK:    16,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// pairDeck deals node pairs for writes without replacement, in an
// order fixed by the seed, so every pair is written at most once per
// run and the final state does not depend on the order in which
// concurrent writes landed.
type pairDeck struct {
	mu    sync.Mutex
	pairs [][2]int
	next  int
}

func newPairDeck(n int, seed int64) *pairDeck {
	d := &pairDeck{}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d.pairs = append(d.pairs, [2]int{i, j})
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(d.pairs), func(a, b int) { d.pairs[a], d.pairs[b] = d.pairs[b], d.pairs[a] })
	return d
}

// deal returns the next unused pair; ok is false once every pair has
// been written.
func (d *pairDeck) deal() (i, j int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.next >= len(d.pairs) {
		return 0, 0, false
	}
	p := d.pairs[d.next]
	d.next++
	return p[0], p[1], true
}

// stream generates one sequence of requests. Streams are deterministic
// in their seed; different callers use different seeds.
type stream struct {
	w    *workload
	r    *rand.Rand
	deck *pairDeck
	k    int // operations generated so far, indexes the kind cycle
}

func newStream(w *workload, seed int64, deck *pairDeck) *stream {
	return &stream{w: w, r: rand.New(rand.NewSource(seed)), deck: deck}
}

func (s *stream) next() op {
	w := s.w
	if w.batch == 1 && w.cycle[s.k%len(w.cycle)] == slotUpdate {
		s.k++
		if i, j, ok := s.deck.deal(); ok {
			return op{update: true, i: i, j: j, rtt: 1 + 99*s.r.Float64()}
		}
		// Every pair has been written once: read instead, so no pair
		// is written twice.
		return op{queries: []tivaware.Query{s.query(slotDelay)}}
	}
	qs := make([]tivaware.Query, w.batch)
	for b := range qs {
		qs[b] = s.query(w.cycle[s.k%len(w.cycle)])
		s.k++
	}
	return op{queries: qs}
}

func (s *stream) pair() (int, int) {
	i := s.r.Intn(s.w.n)
	j := s.r.Intn(s.w.n - 1)
	if j >= i {
		j++
	}
	return i, j
}

// candidates draws w.candidates distinct nodes other than target, in
// ascending order; nil (all nodes) when the workload ranks over all.
func (s *stream) candidates(target int) []int {
	if s.w.candidates == 0 {
		return nil
	}
	seen := map[int]bool{target: true}
	out := make([]int, 0, s.w.candidates)
	for len(out) < s.w.candidates {
		c := s.r.Intn(s.w.n)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

func (s *stream) query(k slot) tivaware.Query {
	w := s.w
	switch k {
	case slotRank:
		t := s.r.Intn(w.n)
		return tivaware.Query{Kind: tivaware.KindRank, Target: t, K: w.rankK, Candidates: s.candidates(t), SeverityPenalty: w.penalty}
	case slotClosest:
		t := s.r.Intn(w.n)
		return tivaware.Query{Kind: tivaware.KindClosest, Target: t, Candidates: s.candidates(t), SeverityPenalty: w.penalty}
	case slotDetour:
		i, j := s.pair()
		return tivaware.Query{Kind: tivaware.KindDetour, I: i, J: j}
	case slotTop:
		return tivaware.Query{Kind: tivaware.KindTop, K: w.topK}
	default:
		i, j := s.pair()
		return tivaware.Query{Kind: tivaware.KindDelay, I: i, J: j}
	}
}
