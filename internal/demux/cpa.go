package demux

import (
	"fmt"

	"ppsim/internal/cell"
	"ppsim/internal/shadow"
)

// TieBreak selects among feasible planes in CPA-family algorithms; it is
// one of the ablations called out in DESIGN.md §5.
type TieBreak uint8

// Tie-breaking rules.
const (
	// MinAvail picks the feasible plane whose (k, j) line frees earliest,
	// lowest index on ties. Deterministic and herding-prone under stale
	// information — exactly the behaviour Theorem 10 exploits.
	MinAvail TieBreak = iota
	// RotateTie round-robins among feasible planes per output, spreading
	// consecutive same-output cells.
	RotateTie
)

// CPA is the centralized demultiplexing algorithm of Iyer, Awadallah and
// McKeown [14]: every decision sees the full current switch status. For
// each cell it computes the departure slot the cell would have in the
// shadow FCFS output-queued switch and places the cell on a plane whose
// input line is free now and whose line to the destination can carry the
// cell no later than that deadline. With speedup S >= 2 such a plane always
// exists and the relative queuing delay is zero; with S < 2 the algorithm
// degrades gracefully by picking the earliest-available plane, and the
// measured excess is reported by experiment E11.
type CPA struct {
	sendScratch
	env    Env
	tie    TieBreak
	oracle *shadow.Oracle
	// linkNext[k*N+j] is the earliest slot a new reservation on line
	// (k, j) may be scheduled, assuming queued cells drain greedily.
	linkNext []cell.Time
	// rotate[j] is the RotateTie pointer per output.
	rotate []cell.Plane
	// misses counts cells for which no feasible plane existed.
	misses uint64
}

// NewCPA returns the centralized algorithm.
func NewCPA(env Env, tie TieBreak) (*CPA, error) {
	if tie != MinAvail && tie != RotateTie {
		return nil, fmt.Errorf("demux: unknown tie-break %d", tie)
	}
	n, k := env.Ports(), env.Planes()
	return &CPA{
		env:      env,
		tie:      tie,
		oracle:   shadow.NewOracle(n),
		linkNext: make([]cell.Time, n*k),
		rotate:   make([]cell.Plane, n),
	}, nil
}

// Name implements Algorithm.
func (a *CPA) Name() string { return "cpa" }

// Misses reports how many cells had no deadline-feasible plane (always 0
// when S >= 2 under admissible traffic).
func (a *CPA) Misses() uint64 { return a.misses }

// Slot implements Algorithm. Arrivals are processed in global sequence
// order, mirroring the FCFS discipline of the reference switch.
func (a *CPA) Slot(t cell.Time, arrivals []cell.Cell) ([]Send, error) {
	if len(arrivals) == 0 {
		return nil, nil
	}
	sends := a.take()
	for _, c := range arrivals {
		deadline := a.oracle.Departure(t, c.Flow.Out)
		p, reserve, feasible := a.choose(t, c.Flow.In, c.Flow.Out, deadline)
		if p == cell.NoPlane {
			return nil, fmt.Errorf("demux: cpa input %d has no free gate at slot %d", c.Flow.In, t)
		}
		if !feasible {
			a.misses++
		}
		a.linkNext[int(p)*a.env.Ports()+int(c.Flow.Out)] = reserve + cell.Time(a.env.RPrime())
		sends = append(sends, Send{Cell: c, Plane: p})
	}
	return a.keep(sends), nil
}

// choose returns the selected plane, its reservation slot, and whether the
// reservation meets the deadline.
func (a *CPA) choose(t cell.Time, in, out cell.Port, deadline cell.Time) (cell.Plane, cell.Time, bool) {
	n, k := a.env.Ports(), a.env.Planes()
	bestP := cell.NoPlane
	var bestReserve cell.Time
	start := 0
	if a.tie == RotateTie {
		start = int(a.rotate[out])
	}
	free := a.env.FreeGateMask(in, t)
	for d := 0; d < k; d++ {
		p := cell.Plane((start + d) % k)
		if free&(1<<uint(p)) == 0 {
			continue // input constraint: line (in, p) busy
		}
		reserve := a.linkNext[int(p)*n+int(out)]
		if t > reserve {
			reserve = t
		}
		switch a.tie {
		case MinAvail:
			if bestP == cell.NoPlane || reserve < bestReserve {
				bestP, bestReserve = p, reserve
			}
		case RotateTie:
			// First feasible plane in rotation order wins outright;
			// otherwise remember the earliest-available fallback.
			if reserve <= deadline {
				a.rotate[out] = (p + 1) % cell.Plane(k)
				return p, reserve, true
			}
			if bestP == cell.NoPlane || reserve < bestReserve {
				bestP, bestReserve = p, reserve
			}
		}
	}
	if bestP == cell.NoPlane {
		return cell.NoPlane, 0, false
	}
	if a.tie == RotateTie {
		a.rotate[out] = (bestP + 1) % cell.Plane(k)
	}
	return bestP, bestReserve, bestReserve <= deadline
}

// Buffered implements Algorithm (bufferless).
func (a *CPA) Buffered(cell.Port) int { return 0 }
