// Package shadow implements the reference switch the PPS is measured
// against: an optimal work-conserving output-queued switch operating at the
// external rate R, following a global FCFS discipline (cells leave each
// output in the order they arrived to the switch, regardless of flow).
//
// The paper calls this the "shadow switch" or "reference switch"; it
// receives exactly the same stream of flows as the PPS, and the *relative*
// queuing delay of the PPS is the excess of its per-cell delay over the
// shadow's (Section 1.1). A work-conserving switch guarantees that if a cell
// is pending for output j at slot t, some cell leaves output j at slot t;
// this maximizes throughput and minimizes average delay, and under (R, B)
// leaky-bucket traffic its queuing delay is at most B slots (Cruz).
package shadow

import (
	"fmt"

	"ppsim/internal/cell"
	"ppsim/internal/queue"
)

// Switch is the FCFS output-queued reference switch. Arrivals of a slot are
// enqueued in global sequence order and each output emits at most one cell
// per slot, in the same slot it arrived when the output is idle.
type Switch struct {
	n      int
	queues []queue.FIFO[cell.Cell]
	// active is the sorted list of outputs with a non-empty queue, inSet
	// marks membership, and added stages the outputs that became non-empty
	// this slot (merged in before the departure sweep). The sweep then
	// costs O(backlogged outputs + arrivals) instead of O(N) — at large N
	// with light load the per-slot walk over empty queues dominated the
	// whole shadow step.
	active []cell.Port
	added  []cell.Port
	inSet  []bool
	// Accounting for work-conservation checks and experiment reports.
	arrived  uint64
	departed uint64
	lastSlot cell.Time
}

// New returns an n x n reference switch. It panics if n <= 0.
func New(n int) *Switch {
	if n <= 0 {
		panic(fmt.Sprintf("shadow: invalid port count %d", n))
	}
	return &Switch{n: n, queues: make([]queue.FIFO[cell.Cell], n), inSet: make([]bool, n), lastSlot: -1}
}

// Ports returns N.
func (s *Switch) Ports() int { return s.n }

// Step advances the switch by one slot: the given cells (already stamped,
// in sequence order, at most one per input) arrive, and each non-empty
// output queue emits its head. Departing cells are appended to dst with
// their Depart stamp set, and the extended slice is returned.
//
// Slots must be presented in strictly increasing order; silent slots in
// between may be skipped only if no cells are queued (otherwise the skipped
// departures would be lost), so callers normally call Step for every slot
// until Drained reports true.
func (s *Switch) Step(t cell.Time, arrivals []cell.Cell, dst []cell.Cell) []cell.Cell {
	if t <= s.lastSlot {
		panic(fmt.Sprintf("shadow: non-monotone slot %d after %d", t, s.lastSlot))
	}
	if t != s.lastSlot+1 && s.arrived != s.departed {
		panic(fmt.Sprintf("shadow: skipped from slot %d to %d with cells queued", s.lastSlot, t))
	}
	s.lastSlot = t
	for _, c := range arrivals {
		if c.Arrive != t {
			panic(fmt.Sprintf("shadow: cell %v presented at slot %d", c, t))
		}
		if int(c.Flow.Out) < 0 || int(c.Flow.Out) >= s.n {
			panic(fmt.Sprintf("shadow: destination out of range: %v", c))
		}
		s.queues[c.Flow.Out].Push(c)
		s.arrived++
		if !s.inSet[c.Flow.Out] {
			s.inSet[c.Flow.Out] = true
			s.added = append(s.added, c.Flow.Out)
		}
	}
	s.merge()
	// Every active queue is non-empty by construction, so each emits its
	// head; ascending output order matches the historical full-port walk.
	keep := s.active[:0]
	for _, j := range s.active {
		c := s.queues[j].Pop()
		c.Depart = t
		dst = append(dst, c)
		s.departed++
		if s.queues[j].Empty() {
			s.inSet[j] = false
		} else {
			keep = append(keep, j)
		}
	}
	s.active = keep
	return dst
}

// merge folds the slot's newly non-empty outputs into the sorted active
// list, allocation-free. Few additions (the steady state) insertion-sort and
// back-merge in place — the inSet guard guarantees the runs are disjoint;
// a burst of many additions falls back to a linear rebuild over the port
// space, which the slot's O(arrivals) work already amortizes.
func (s *Switch) merge() {
	add := s.added
	if len(add) == 0 {
		return
	}
	if len(add) > 32 {
		s.active = s.active[:0]
		for j := 0; j < s.n; j++ {
			if s.inSet[j] {
				s.active = append(s.active, cell.Port(j))
			}
		}
		s.added = s.added[:0]
		return
	}
	for i := 1; i < len(add); i++ {
		for k := i; k > 0 && add[k] < add[k-1]; k-- {
			add[k], add[k-1] = add[k-1], add[k]
		}
	}
	old := len(s.active)
	s.active = append(s.active, add...)
	i, k := old-1, len(add)-1
	for w := len(s.active) - 1; k >= 0; w-- {
		if i >= 0 && s.active[i] > add[k] {
			s.active[w] = s.active[i]
			i--
		} else {
			s.active[w] = add[k]
			k--
		}
	}
	s.added = s.added[:0]
}

// Backlog reports the number of cells currently queued.
func (s *Switch) Backlog() int { return int(s.arrived - s.departed) }

// QueueLen reports the number of cells queued for output j.
func (s *Switch) QueueLen(j cell.Port) int { return s.queues[j].Len() }

// Drained reports whether every queue is empty.
func (s *Switch) Drained() bool { return s.arrived == s.departed }

// Arrived reports the total number of cells accepted so far.
func (s *Switch) Arrived() uint64 { return s.arrived }

// Departed reports the total number of cells emitted so far.
func (s *Switch) Departed() uint64 { return s.departed }

// Oracle predicts FCFS output-queued departure times without running a full
// switch. It is the bookkeeping the centralized CPA algorithm performs: the
// departure slot of a cell arriving at slot t for output j is
// max(previous departure for j + 1, t).
type Oracle struct {
	next []cell.Time // earliest free departure slot per output
}

// NewOracle returns an oracle for an n-output switch.
func NewOracle(n int) *Oracle {
	next := make([]cell.Time, n)
	return &Oracle{next: next}
}

// Departure returns, and reserves, the shadow departure slot of a cell
// arriving at slot t destined for output j. Cells must be presented in
// global FCFS (sequence) order.
func (o *Oracle) Departure(t cell.Time, j cell.Port) cell.Time {
	d := o.next[j]
	if t > d {
		d = t
	}
	o.next[j] = d + 1
	return d
}

// Backlog reports how many of the cells presented so far are still queued
// after slot t, for t no earlier than the latest arrival: output j then holds
// one cell for every slot in (t, next[j]), its busy period being gap-free
// from t on. O(N) — for probes and error messages, not the per-cell path.
func (o *Oracle) Backlog(t cell.Time) int {
	total := 0
	for _, next := range o.next {
		if next > t+1 {
			total += int(next - (t + 1))
		}
	}
	return total
}

// Peek returns the departure slot Departure would assign, without reserving.
func (o *Oracle) Peek(t cell.Time, j cell.Port) cell.Time {
	d := o.next[j]
	if t > d {
		d = t
	}
	return d
}
