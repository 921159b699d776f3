// Package crossbar implements an input-queued crossbar switch with virtual
// output queues (VOQs) and an iSLIP-style iterative round-robin arbiter.
//
// The paper cites arbitrated crossbars (Tamir & Chi [22]) as the prime
// example of u-RT demultiplexing: an input requests, the arbiter grants
// after a delay, and cells wait in input buffers meanwhile — global
// information is used, but with a lag. This package provides that
// substrate so the experiment suite can contrast the PPS bounds with the
// behaviour of a classical arbitrated fabric (experiment E14).
//
// The arbiter is the standard three-phase iSLIP:
//
//	request: every input requests every output with a non-empty VOQ;
//	grant:   every output grants the requesting input nearest its grant
//	         pointer (round-robin);
//	accept:  every input accepts the granting output nearest its accept
//	         pointer; pointers advance only on accepted grants of the
//	         first iteration (the iSLIP de-synchronization rule).
//
// Multiple iterations refine the matching within one slot.
package crossbar

import (
	"fmt"
	"math/rand"

	"ppsim/internal/cell"
	"ppsim/internal/queue"
)

// Arbiter selects the matching discipline.
type Arbiter uint8

// Supported arbiters.
const (
	// ISLIP is the de-synchronizing round-robin arbiter described in the
	// package comment.
	ISLIP Arbiter = iota
	// PIM is parallel iterative matching (Anderson et al.): grants and
	// accepts are chosen uniformly at random each iteration instead of by
	// rotating pointers. Randomness is seeded and local to the arbiter.
	PIM
)

// Switch is an N x N input-queued crossbar.
type Switch struct {
	n          int
	iterations int
	arb        Arbiter
	rng        *rand.Rand
	voq        []queue.FIFO[cell.Cell] // [i*n+j]
	grantPtr   []int                   // per output (iSLIP)
	acceptPtr  []int                   // per input (iSLIP)
	arrived    uint64
	departed   uint64
	lastSlot   cell.Time

	// scratch per slot
	granted  []int // per output: granted input or -1
	accepted []int // per input: accepted output or -1
	matchIn  []bool
	matchOut []bool
	cand     []int
}

// New returns an N x N crossbar whose arbiter runs the given number of
// iSLIP iterations per slot (>= 1).
func New(n, iterations int) (*Switch, error) {
	return NewWithArbiter(n, iterations, ISLIP, 0)
}

// NewWithArbiter selects the arbiter; seed matters only for PIM.
func NewWithArbiter(n, iterations int, arb Arbiter, seed int64) (*Switch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("crossbar: invalid port count %d", n)
	}
	if iterations < 1 {
		return nil, fmt.Errorf("crossbar: need at least one arbiter iteration, got %d", iterations)
	}
	if arb != ISLIP && arb != PIM {
		return nil, fmt.Errorf("crossbar: unknown arbiter %d", arb)
	}
	return &Switch{
		n:          n,
		iterations: iterations,
		arb:        arb,
		rng:        rand.New(rand.NewSource(seed)),
		voq:        make([]queue.FIFO[cell.Cell], n*n),
		grantPtr:   make([]int, n),
		acceptPtr:  make([]int, n),
		granted:    make([]int, n),
		accepted:   make([]int, n),
		matchIn:    make([]bool, n),
		matchOut:   make([]bool, n),
		lastSlot:   -1,
	}, nil
}

// Ports returns N.
func (s *Switch) Ports() int { return s.n }

// Backlog reports the total queued cells.
func (s *Switch) Backlog() int { return int(s.arrived - s.departed) }

// Drained reports whether all queues are empty.
func (s *Switch) Drained() bool { return s.arrived == s.departed }

// Step advances one slot: arrivals enter their VOQs, the arbiter computes a
// matching, and one cell crosses per matched (input, output) pair.
// Departures are appended to dst with Depart set.
func (s *Switch) Step(t cell.Time, arrivals []cell.Cell, dst []cell.Cell) ([]cell.Cell, error) {
	if t <= s.lastSlot {
		return dst, fmt.Errorf("crossbar: non-monotone slot %d after %d", t, s.lastSlot)
	}
	s.lastSlot = t
	for _, c := range arrivals {
		if c.Arrive != t {
			return dst, fmt.Errorf("crossbar: cell %v presented at slot %d", c, t)
		}
		i, j := int(c.Flow.In), int(c.Flow.Out)
		if i < 0 || i >= s.n || j < 0 || j >= s.n {
			return dst, fmt.Errorf("crossbar: cell %v outside %dx%d switch", c, s.n, s.n)
		}
		s.voq[i*s.n+j].Push(c)
		s.arrived++
	}

	s.match()

	for i := 0; i < s.n; i++ {
		j := s.accepted[i]
		if j < 0 {
			continue
		}
		c := s.voq[i*s.n+j].Pop()
		c.Depart = t
		dst = append(dst, c)
		s.departed++
	}
	return dst, nil
}

// match runs the iSLIP iterations, filling s.accepted.
func (s *Switch) match() {
	for i := range s.accepted {
		s.accepted[i] = -1
		s.matchIn[i] = false
	}
	for j := range s.matchOut {
		s.matchOut[j] = false
	}
	for iter := 0; iter < s.iterations; iter++ {
		progress := false
		// Grant phase.
		for j := 0; j < s.n; j++ {
			s.granted[j] = -1
			if s.matchOut[j] {
				continue
			}
			switch s.arb {
			case ISLIP:
				for d := 0; d < s.n; d++ {
					i := (s.grantPtr[j] + d) % s.n
					if !s.matchIn[i] && s.voq[i*s.n+j].Len() > 0 {
						s.granted[j] = i
						break
					}
				}
			case PIM:
				s.cand = s.cand[:0]
				for i := 0; i < s.n; i++ {
					if !s.matchIn[i] && s.voq[i*s.n+j].Len() > 0 {
						s.cand = append(s.cand, i)
					}
				}
				if len(s.cand) > 0 {
					s.granted[j] = s.cand[s.rng.Intn(len(s.cand))]
				}
			}
		}
		// Accept phase.
		for i := 0; i < s.n; i++ {
			if s.matchIn[i] {
				continue
			}
			best := -1
			switch s.arb {
			case ISLIP:
				for d := 0; d < s.n; d++ {
					j := (s.acceptPtr[i] + d) % s.n
					if !s.matchOut[j] && s.granted[j] == i {
						best = j
						break
					}
				}
			case PIM:
				s.cand = s.cand[:0]
				for j := 0; j < s.n; j++ {
					if !s.matchOut[j] && s.granted[j] == i {
						s.cand = append(s.cand, j)
					}
				}
				if len(s.cand) > 0 {
					best = s.cand[s.rng.Intn(len(s.cand))]
				}
			}
			if best < 0 {
				continue
			}
			s.accepted[i] = best
			s.matchIn[i] = true
			s.matchOut[best] = true
			progress = true
			// iSLIP pointer update: only on first-iteration accepts, to
			// one past the matched partner.
			if s.arb == ISLIP && iter == 0 {
				s.grantPtr[best] = (i + 1) % s.n
				s.acceptPtr[i] = (best + 1) % s.n
			}
		}
		if !progress {
			break
		}
	}
}
