// Package queue provides the queue structures of the switch models: the
// FIFO (the shadow switch's output queues, the crossbar and CIOQ virtual
// output queues and the input-port buffers of the buffered PPS variant) and
// the SeqTable of the FlowSeqs dropped ahead of a flow's frontier (the
// resequencers' drop records and the order referee's gap table, one table
// of each per store shard). The PPS plane queues are not FIFOs: they are
// cell.Lists threaded through the cell store, and a resequencer's parked
// and emittable cells wait on cell.Rings threaded the same way.
//
// The FIFO is a growable ring buffer. Switch simulations enqueue and dequeue
// on every time-slot, so avoiding per-operation allocation dominates the
// engine's throughput (BenchmarkAblationQueueImpl, in this package, is the
// ablation against a naive slice-append queue).
package queue

// FIFO is a first-in first-out queue backed by a growable ring buffer.
// The zero value is an empty queue ready for use.
type FIFO[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of elements
}

// New returns a FIFO with capacity pre-allocated for at least hint elements.
func New[T any](hint int) *FIFO[T] {
	if hint < 0 {
		hint = 0
	}
	return &FIFO[T]{buf: make([]T, roundUp(hint))}
}

// roundUp returns the smallest power of two >= n, minimum 8, so that ring
// arithmetic stays cheap and growth is geometric.
func roundUp(n int) int {
	c := 8
	for c < n {
		c <<= 1
	}
	return c
}

// Len reports the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Empty reports whether the queue holds no elements.
func (q *FIFO[T]) Empty() bool { return q.n == 0 }

// Push appends v to the tail of the queue.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the head of the queue. It panics on an empty
// queue: popping from an empty switch queue indicates a scheduling bug, and
// silently returning a zero cell would corrupt the simulation.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("queue: Pop on empty FIFO")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release references for GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Peek returns the head of the queue without removing it. It panics on an
// empty queue for the same reason as Pop.
func (q *FIFO[T]) Peek() T {
	if q.n == 0 {
		panic("queue: Peek on empty FIFO")
	}
	return q.buf[q.head]
}

// At returns the i-th element from the head (At(0) == Peek()) without
// removing it. It panics if i is out of range.
func (q *FIFO[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("queue: At index out of range")
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// Reset drops all elements, retaining the allocated buffer.
func (q *FIFO[T]) Reset() {
	var zero T
	for i := 0; i < q.n; i++ {
		q.buf[(q.head+i)&(len(q.buf)-1)] = zero
	}
	q.head, q.n = 0, 0
}

// grow doubles the buffer, un-wrapping the ring into the new slice.
func (q *FIFO[T]) grow() {
	if len(q.buf) == 0 {
		q.buf = make([]T, 8)
		return
	}
	nb := make([]T, len(q.buf)*2)
	q.copyInto(nb)
	q.buf = nb
	q.head = 0
}

func (q *FIFO[T]) copyInto(dst []T) {
	first := copy(dst, q.buf[q.head:])
	if first < q.n {
		copy(dst[first:], q.buf[:q.n-first])
	}
}

// Snapshot returns the queued elements head-to-tail in a fresh slice.
// It is used by demultiplexors that inspect buffer contents (Definition 2
// of the paper models the input buffer as a vector of destinations).
func (q *FIFO[T]) Snapshot() []T {
	out := make([]T, q.n)
	q.copyInto(out)
	return out
}

// RemoveAt removes and returns the i-th element from the head, shifting the
// later elements forward. It is O(n) and exists for input-buffered
// demultiplexors, which may dispatch any buffered cell, not only the head
// (Definition 2 allows the demultiplexor to send "any number of buffered
// cells" per slot). It panics if i is out of range.
func (q *FIFO[T]) RemoveAt(i int) T {
	if i < 0 || i >= q.n {
		panic("queue: RemoveAt index out of range")
	}
	v := q.At(i)
	mask := len(q.buf) - 1
	for k := i; k < q.n-1; k++ {
		q.buf[(q.head+k)&mask] = q.buf[(q.head+k+1)&mask]
	}
	var zero T
	q.buf[(q.head+q.n-1)&mask] = zero
	q.n--
	return v
}
