// Package topk selects the k best elements of a stream without
// materializing the stream: a bounded max-heap keeps the k best seen
// so far, its root the worst of them, so each further element costs
// one comparison against the root and, when it wins, O(log k) to
// re-heap. The read paths that return only the best k of many
// candidates — top edges, a rank cut to K, the closest node — select
// with it in O(n log k) time and O(k) space instead of sorting all n.
//
// The order must be total and strict: cmp returns 0 only for equal
// elements. The k kept elements, and their sorted order, are then
// exactly the first k of a full sort, whatever order the stream
// arrives in.
package topk

import "slices"

// Heap keeps the k best elements pushed into it under cmp, which is
// negative when a ranks before b (the slices.SortFunc convention).
type Heap[T any] struct {
	k     int
	cmp   func(a, b T) int
	items []T // max-heap under cmp: items[0] is the worst kept
}

// New returns an empty heap that keeps the k best elements (none when
// k ≤ 0). Its buffer holds exactly k elements, so callers cap k at
// the number of elements they can push.
func New[T any](k int, cmp func(a, b T) int) Heap[T] {
	if k < 0 {
		k = 0
	}
	return Heap[T]{k: k, cmp: cmp, items: make([]T, 0, k)}
}

// Full reports whether the heap holds k elements, after which Worst
// is the bar a pushed element must beat.
func (h *Heap[T]) Full() bool { return len(h.items) == h.k }

// Worst returns the worst kept element. The heap must be full.
func (h *Heap[T]) Worst() T { return h.items[0] }

// Push offers x: it is kept while fewer than k are, or when it ranks
// before the worst kept element, which it then evicts. Until the heap
// fills, elements are only appended; it is heapified once, on filling.
// A heap sized to its whole input thus costs little beyond the sort
// in Sorted.
func (h *Heap[T]) Push(x T) {
	if len(h.items) < h.k {
		h.items = append(h.items, x)
		if len(h.items) == h.k {
			for i := h.k/2 - 1; i >= 0; i-- {
				h.down(i)
			}
		}
		return
	}
	if h.k == 0 || h.cmp(x, h.items[0]) >= 0 {
		return
	}
	h.items[0] = x
	h.down(0)
}

// Sorted returns the kept elements best first, sorting them in place.
// The heap is spent afterwards.
func (h *Heap[T]) Sorted() []T {
	s := h.items
	h.items = nil
	slices.SortFunc(s, h.cmp)
	return s
}

// down restores the max-heap property from node i towards the leaves.
func (h *Heap[T]) down(i int) {
	s := h.items
	for {
		worst := i
		if l := 2*i + 1; l < len(s) && h.cmp(s[worst], s[l]) < 0 {
			worst = l
		}
		if r := 2*i + 2; r < len(s) && h.cmp(s[worst], s[r]) < 0 {
			worst = r
		}
		if worst == i {
			return
		}
		s[i], s[worst] = s[worst], s[i]
		i = worst
	}
}
