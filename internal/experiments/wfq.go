package experiments

import (
	"fmt"

	"ppsim/internal/cell"
	"ppsim/internal/queue"
)

// wfqScheduler is a single-server weighted fair queueing scheduler over a
// fixed set of flows: the canonical guaranteed-rate service discipline
// behind the QoS framing of the paper's introduction ("The need to support
// a large variety of applications with quality of service (QoS)
// guarantees...", citing Zhang's survey of service disciplines). It is the
// discipline a QoS-aware deployment would run at the external output links
// downstream of the switch: the PPS delivers cells to the output, and WFQ
// decides which flow's cell uses the line.
//
// The implementation is the standard virtual-time approximation of
// generalized processor sharing (PGPS): each backlogged flow f with weight
// w_f receives service at rate w_f / sum of backlogged weights; a cell of
// length 1 arriving to flow f is stamped with a virtual finish time
// F = max(V(now), F_prev) + 1/w_f, and cells are served in increasing
// finish-time order. Per-flow delay is then bounded independently of the
// other flows' arrival behaviour — the isolation property experiment E27
// contrasts with FCFS.
type wfqScheduler struct {
	weights map[cell.Flow]float64
	queues  map[cell.Flow]*queue.FIFO[wfqItem]
	lastF   map[cell.Flow]float64
	ready   *queue.Heap[wfqItem] // each backlogged flow's head, by (finish, Seq)
	// Virtual time state.
	vtime      float64
	vlast      cell.Time // real time of the last virtual-time update
	backlogSum float64   // sum of weights of backlogged flows
	backlogged map[cell.Flow]bool
	served     uint64
}

type wfqItem struct {
	c      cell.Cell
	finish float64
}

// newWFQScheduler returns an empty scheduler.
func newWFQScheduler() *wfqScheduler {
	return &wfqScheduler{
		weights:    make(map[cell.Flow]float64),
		queues:     make(map[cell.Flow]*queue.FIFO[wfqItem]),
		lastF:      make(map[cell.Flow]float64),
		ready:      queue.NewHeap(earlierFinish),
		backlogged: make(map[cell.Flow]bool),
	}
}

// earlierFinish orders items by virtual finish time, ties by Seq: a total
// order, so the service order does not depend on the heap's layout.
func earlierFinish(a, b wfqItem) bool {
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	return a.c.Seq < b.c.Seq
}

// addFlow registers a flow with a positive weight. Flows must be registered
// before their first cell.
func (s *wfqScheduler) addFlow(f cell.Flow, weight float64) error {
	if weight <= 0 {
		return fmt.Errorf("wfq: weight must be positive, got %g", weight)
	}
	if _, ok := s.weights[f]; ok {
		return fmt.Errorf("wfq: flow %v already registered", f)
	}
	s.weights[f] = weight
	s.queues[f] = queue.New[wfqItem](4)
	return nil
}

// advance moves virtual time to real slot t: V grows at rate
// 1/backlogSum while any flow is backlogged (unit-capacity server).
func (s *wfqScheduler) advance(t cell.Time) {
	if t > s.vlast {
		if s.backlogSum > 0 {
			s.vtime += float64(t-s.vlast) / s.backlogSum
		}
		s.vlast = t
	}
}

// enqueue accepts a cell of flow c.Flow at slot t.
func (s *wfqScheduler) enqueue(t cell.Time, c cell.Cell) error {
	w, ok := s.weights[c.Flow]
	if !ok {
		return fmt.Errorf("wfq: flow %v not registered", c.Flow)
	}
	s.advance(t)
	start := s.vtime
	if prev := s.lastF[c.Flow]; prev > start {
		start = prev
	}
	fin := start + 1/w
	s.lastF[c.Flow] = fin
	q := s.queues[c.Flow]
	q.Push(wfqItem{c: c, finish: fin})
	if !s.backlogged[c.Flow] {
		s.backlogged[c.Flow] = true
		s.backlogSum += w
	}
	if q.Len() == 1 {
		s.ready.Push(wfqItem{c: c, finish: fin})
	}
	return nil
}

// dequeue serves one cell at slot t (the smallest virtual finish time among
// head-of-line cells); ok is false when idle.
func (s *wfqScheduler) dequeue(t cell.Time) (cell.Cell, bool) {
	s.advance(t)
	if s.ready.Empty() {
		return cell.Cell{}, false
	}
	it := s.ready.Pop()
	q := s.queues[it.c.Flow]
	q.Pop()
	s.served++
	if q.Empty() {
		s.backlogged[it.c.Flow] = false
		s.backlogSum -= s.weights[it.c.Flow]
		if s.backlogSum < 1e-12 {
			s.backlogSum = 0
		}
	} else {
		s.ready.Push(q.Peek())
	}
	out := it.c
	out.Depart = t
	return out, true
}

// backlog reports queued cells.
func (s *wfqScheduler) backlog() int {
	n := 0
	for _, q := range s.queues {
		n += q.Len()
	}
	return n
}
