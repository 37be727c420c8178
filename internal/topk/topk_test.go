package topk

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestHeapMatchesSortThenTruncate streams shuffled values with many
// duplicates (ordered by value, then by index: a strict total order)
// and requires exactly the first k of a full sort, for k below, at and
// above the stream length.
func TestHeapMatchesSortThenTruncate(t *testing.T) {
	type item struct{ v, id int }
	cmp := func(a, b item) int {
		if a.v != b.v {
			return a.v - b.v
		}
		return a.id - b.id
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 7, 64} {
		items := make([]item, n)
		for i := range items {
			items[i] = item{v: rng.Intn(4), id: i}
		}
		want := append([]item(nil), items...)
		sort.Slice(want, func(a, b int) bool { return cmp(want[a], want[b]) < 0 })
		for _, k := range []int{-1, 0, 1, 2, 5, n - 1, n, n + 3} {
			h := New(k, cmp)
			for _, i := range rng.Perm(n) {
				h.Push(items[i])
			}
			got := h.Sorted()
			if cut := want[:min(max(k, 0), n)]; len(got) != len(cut) || (len(cut) > 0 && !reflect.DeepEqual(got, cut)) {
				t.Fatalf("n=%d k=%d: got %v, want %v", n, k, got, cut)
			}
		}
	}
}
