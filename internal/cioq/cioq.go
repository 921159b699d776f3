// Package cioq implements a combined input-output queued (CIOQ) switch
// with an integer speedup: the fabric runs s matching phases per external
// time-slot, moving cells from virtual output queues (VOQs) at the inputs
// to the output buffers.
//
// The paper's related-work section leans on Chuang, Goel, McKeown and
// Prabhakar: a CIOQ switch needs speedup 2 - 1/N to exactly mimic an
// output-queued switch. This package provides that comparison point for
// the PPS experiments: the scheduler is "most urgent cell first" — in each
// phase, head-of-line cells are considered in increasing shadow-departure
// deadline, and a cell is transferred when both its input and its output
// are still unmatched in that phase. With speedup 2 this greedy
// urgency-ordered matching tracks the reference switch closely; with
// speedup 1 it degrades into plain input-queued behaviour.
package cioq

import (
	"cmp"
	"fmt"
	"slices"

	"ppsim/internal/cell"
	"ppsim/internal/queue"
	"ppsim/internal/shadow"
)

// Switch is an N x N CIOQ switch with the given speedup (phases per slot).
type Switch struct {
	n       int
	speedup int
	voq     []queue.FIFO[queued]    // [i*n+j]
	outBuf  []queue.FIFO[cell.Cell] // per output, in deadline (= Seq) order
	oracle  *shadow.Oracle

	arrived  uint64
	departed uint64
	lastSlot cell.Time

	// scratch, reused by every matching phase
	order           []hol
	inUsed, outUsed []bool
}

// queued is a VOQ entry: the cell and the shadow departure slot it was
// assigned at arrival, its deadline.
type queued struct {
	c        cell.Cell
	deadline cell.Time
}

type hol struct {
	i, j     int
	deadline cell.Time
	seq      uint64
}

// New returns an N x N CIOQ switch with integer speedup >= 1.
func New(n, speedup int) (*Switch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cioq: invalid port count %d", n)
	}
	if speedup < 1 {
		return nil, fmt.Errorf("cioq: speedup must be >= 1, got %d", speedup)
	}
	return &Switch{
		n:        n,
		speedup:  speedup,
		voq:      make([]queue.FIFO[queued], n*n),
		outBuf:   make([]queue.FIFO[cell.Cell], n),
		oracle:   shadow.NewOracle(n),
		lastSlot: -1,
		inUsed:   make([]bool, n),
		outUsed:  make([]bool, n),
	}, nil
}

// Ports returns N.
func (s *Switch) Ports() int { return s.n }

// Speedup returns the phases per slot.
func (s *Switch) Speedup() int { return s.speedup }

// Backlog reports queued cells (VOQs plus output buffers).
func (s *Switch) Backlog() int { return int(s.arrived - s.departed) }

// Drained reports whether everything has departed.
func (s *Switch) Drained() bool { return s.arrived == s.departed }

// Step advances one external slot: arrivals enter VOQs (and receive shadow
// deadlines), the fabric runs `speedup` urgency-ordered matching phases,
// and each output with a buffered cell emits the most urgent one.
// Departures are appended to dst.
func (s *Switch) Step(t cell.Time, arrivals []cell.Cell, dst []cell.Cell) ([]cell.Cell, error) {
	if t <= s.lastSlot {
		return dst, fmt.Errorf("cioq: non-monotone slot %d after %d", t, s.lastSlot)
	}
	s.lastSlot = t
	for _, c := range arrivals {
		if c.Arrive != t {
			return dst, fmt.Errorf("cioq: cell %v presented at slot %d", c, t)
		}
		i, j := int(c.Flow.In), int(c.Flow.Out)
		if i < 0 || i >= s.n || j < 0 || j >= s.n {
			return dst, fmt.Errorf("cioq: cell %v outside %dx%d switch", c, s.n, s.n)
		}
		s.voq[i*s.n+j].Push(queued{c, s.oracle.Departure(t, c.Flow.Out)})
		s.arrived++
	}

	for phase := 0; phase < s.speedup; phase++ {
		s.matchPhase(t)
	}

	// Emission: one cell per output per slot, most urgent first. Phases
	// can deliver cells out of sequence order, so scan for the minimum;
	// output buffers stay tiny (inflow exceeds the drain rate by at most
	// speedup-1 per slot).
	for j := 0; j < s.n; j++ {
		if s.outBuf[j].Empty() {
			continue
		}
		// Find and remove the minimum-Seq cell (output buffers are tiny:
		// at most speedup new cells per slot above the drain rate).
		minIdx, minSeq := 0, s.outBuf[j].At(0).Seq
		for x := 1; x < s.outBuf[j].Len(); x++ {
			if q := s.outBuf[j].At(x).Seq; q < minSeq {
				minIdx, minSeq = x, q
			}
		}
		c := s.outBuf[j].RemoveAt(minIdx)
		c.Depart = t
		dst = append(dst, c)
		s.departed++
	}
	return dst, nil
}

// matchPhase transfers at most one cell per input and per output, chosen
// by increasing shadow deadline.
func (s *Switch) matchPhase(t cell.Time) {
	s.order = s.order[:0]
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.n; j++ {
			q := &s.voq[i*s.n+j]
			if q.Empty() {
				continue
			}
			h := q.Peek()
			s.order = append(s.order, hol{i: i, j: j, deadline: h.deadline, seq: h.c.Seq})
		}
	}
	if len(s.order) == 0 {
		return
	}
	slices.SortFunc(s.order, func(a, b hol) int {
		return cmp.Or(cmp.Compare(a.deadline, b.deadline), cmp.Compare(a.seq, b.seq))
	})
	clear(s.inUsed)
	clear(s.outUsed)
	for _, h := range s.order {
		if s.inUsed[h.i] || s.outUsed[h.j] {
			continue
		}
		s.inUsed[h.i] = true
		s.outUsed[h.j] = true
		c := s.voq[h.i*s.n+h.j].Pop().c
		c.AtOutput = t
		s.outBuf[h.j].Push(c)
	}
}
