package experiments

// minHeap is a binary min-heap ordered by its element type's Less method,
// backed by a slice that keeps its capacity across push/pop cycles. Unlike
// container/heap it stores elements inline instead of boxing each one into
// an interface{}. The zero value is an empty heap ready for use. Less must be
// a strict weak ordering; the minimum element is popped first.
type minHeap[T interface{ Less(T) bool }] struct {
	buf []T
}

// Len reports the number of elements held.
func (h *minHeap[T]) Len() int { return len(h.buf) }

// Empty reports whether the heap holds no elements.
func (h *minHeap[T]) Empty() bool { return len(h.buf) == 0 }

// Push inserts v.
func (h *minHeap[T]) Push(v T) {
	h.buf = append(h.buf, v)
	h.up(len(h.buf) - 1)
}

// Pop removes and returns the minimum element. It panics on an empty heap.
// The backing slice keeps its capacity, so a steady-state push/pop cycle
// performs no allocation.
func (h *minHeap[T]) Pop() T {
	if len(h.buf) == 0 {
		panic("experiments: Pop on empty heap")
	}
	n := len(h.buf) - 1
	v := h.buf[0]
	h.buf[0] = h.buf[n]
	var zero T
	h.buf[n] = zero // release references for GC
	h.buf = h.buf[:n]
	if n > 0 {
		h.down(0)
	}
	return v
}

func (h *minHeap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.buf[i].Less(h.buf[parent]) {
			return
		}
		h.buf[i], h.buf[parent] = h.buf[parent], h.buf[i]
		i = parent
	}
}

func (h *minHeap[T]) down(i int) {
	n := len(h.buf)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && h.buf[r].Less(h.buf[l]) {
			min = r
		}
		if !h.buf[min].Less(h.buf[i]) {
			return
		}
		h.buf[i], h.buf[min] = h.buf[min], h.buf[i]
		i = min
	}
}
