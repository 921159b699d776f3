package queue

// Heap is a binary min-heap ordered by its element type's Less method,
// backed by a slice that keeps its capacity across Push/Pop cycles. It
// replaces container/heap in the per-slot hot path: the standard library's
// interface signature boxes every element into an interface{}, which costs
// one heap allocation per Push and Pop of a value type like cell.Cell, while
// this heap stores elements inline.
//
// The zero value is an empty heap ready for use, so a Heap can be held by
// value. Less must be a strict weak ordering; the minimum element is popped
// first.
type Heap[T interface{ Less(T) bool }] struct {
	buf []T
}

// Len reports the number of elements held.
func (h *Heap[T]) Len() int { return len(h.buf) }

// Empty reports whether the heap holds no elements.
func (h *Heap[T]) Empty() bool { return len(h.buf) == 0 }

// Push inserts v.
func (h *Heap[T]) Push(v T) {
	h.buf = append(h.buf, v)
	h.up(len(h.buf) - 1)
}

// Peek returns the minimum element without removing it. It panics on an
// empty heap, mirroring FIFO.Peek: reading from an empty switch structure
// is a scheduling bug.
func (h *Heap[T]) Peek() T {
	if len(h.buf) == 0 {
		panic("queue: Peek on empty Heap")
	}
	return h.buf[0]
}

// Pop removes and returns the minimum element. It panics on an empty heap.
// The backing slice keeps its capacity, so a steady-state Push/Pop cycle
// performs no allocation.
func (h *Heap[T]) Pop() T {
	if len(h.buf) == 0 {
		panic("queue: Pop on empty Heap")
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

// Reset drops all elements, retaining the allocated buffer.
func (h *Heap[T]) Reset() {
	var zero T
	for i := range h.buf {
		h.buf[i] = zero
	}
	h.buf = h.buf[:0]
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.buf[i].Less(h.buf[parent]) {
			return
		}
		h.buf[i], h.buf[parent] = h.buf[parent], h.buf[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
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
