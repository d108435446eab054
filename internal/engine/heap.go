package engine

import "cmp"

// minHeap is a binary min-heap. ReferenceRun, the oracle, keeps each
// core's ready ops in one (popping the minimum index issues the oldest
// op in program order first) and its pending event cycles in another.
type minHeap[T cmp.Ordered] struct{ a []T }

func (h *minHeap[T]) empty() bool { return len(h.a) == 0 }

func (h *minHeap[T]) push(v T) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.a[parent] <= h.a[i] {
			break
		}
		h.a[parent], h.a[i] = h.a[i], h.a[parent]
		i = parent
	}
}

func (h *minHeap[T]) pop() T {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.a[l] < h.a[smallest] {
			smallest = l
		}
		if r < last && h.a[r] < h.a[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.a[i], h.a[smallest] = h.a[smallest], h.a[i]
		i = smallest
	}
	return top
}
