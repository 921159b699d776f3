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
//
// Each output's planes are bucketed by the next-free slot of their (plane,
// output) line in a planeBuckets structure, so a cell costs O(1) amortized
// instead of an O(K) scan: under MinAvail the chosen plane is the free
// plane whose clamped line time max(next, t) is earliest, and a miss is
// counted exactly when that time is past the deadline (DESIGN.md §15).
type CPA struct {
	sendScratch
	env    Env
	name   string
	tie    TieBreak
	oracle *shadow.Oracle
	// links[j] buckets the planes by the earliest slot a new reservation
	// on line (k, j) may be scheduled, assuming queued cells drain
	// greedily. Each has room for K buckets, so it never spills.
	links []planeBuckets
	// rotate[j] is the RotateTie pointer per output.
	rotate []cell.Plane
	// misses counts cells for which no feasible plane existed.
	misses uint64
}

// NewCPA returns the centralized algorithm.
func NewCPA(env Env, tie TieBreak) (*CPA, error) {
	switch tie {
	case MinAvail:
		return newCPA(env, tie, "cpa"), nil
	case RotateTie:
		return newCPA(env, tie, "cpa-rotate"), nil
	}
	return nil, fmt.Errorf("demux: unknown tie-break %d", tie)
}

// NewCPASets returns the MinAvail CPA under the name cpa-sets, after the
// AIL/AOL-set formulation of Iyer, Awadallah and McKeown: a cell goes to a
// plane whose input line is free now (AIL) and whose line to the output
// meets the deadline (AOL). When that intersection is nonempty, the free
// plane whose line frees earliest lies in it, so MinAvail is one such
// choice; when it is empty, both fall back to that plane.
func NewCPASets(env Env) (*CPA, error) {
	return newCPA(env, MinAvail, "cpa-sets"), nil
}

func newCPA(env Env, tie TieBreak, name string) *CPA {
	n, k := env.Ports(), env.Planes()
	a := &CPA{
		env:    env,
		name:   name,
		tie:    tie,
		oracle: shadow.NewOracle(n),
		links:  make([]planeBuckets, n),
		rotate: make([]cell.Plane, n),
	}
	w := 2 * k
	slab := make([]uint64, n*w)
	for j := range a.links {
		a.links[j].init(k, slab[:w:w])
		slab = slab[w:]
	}
	return a
}

// Name implements Algorithm.
func (a *CPA) Name() string { return a.name }

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
		p := a.place(t, c.Flow.In, c.Flow.Out, a.oracle.Departure(t, c.Flow.Out))
		if p == cell.NoPlane {
			return nil, fmt.Errorf("demux: %s input %d has no free gate at slot %d", a.name, c.Flow.In, t)
		}
		sends = append(sends, Send{Cell: c, Plane: p})
	}
	return a.keep(sends), nil
}

// place chooses a plane for a cell from in to out due by deadline, reserves
// the plane's line to out and counts a miss if the reservation is late. It
// returns cell.NoPlane, reserving nothing, when every gate of in is busy.
func (a *CPA) place(t cell.Time, in, out cell.Port, deadline cell.Time) cell.Plane {
	free := a.env.FreeGateMask(in, t)
	if free == 0 {
		return cell.NoPlane
	}
	lb := &a.links[out]
	lb.clamp(uint64(t))
	var p cell.Plane
	var at uint64
	if a.tie == RotateTie {
		p, at = a.rotatePick(lb, free, out, uint64(deadline))
	} else {
		p, at = lb.first(free)
	}
	if at > uint64(deadline) {
		a.misses++
	}
	lb.move(p, at, at+uint64(a.env.RPrime()))
	return p
}

// rotatePick is RotateTie's choice: the first free plane in rotation order
// whose line meets the deadline or, if none does, the first in rotation
// order among the free planes whose line frees earliest. It returns the
// plane and its line time, and advances the output's pointer past it.
func (a *CPA) rotatePick(lb *planeBuckets, free uint64, out cell.Port, deadline uint64) (cell.Plane, uint64) {
	_, earliest := lb.first(free)
	bound := max(deadline, earliest)
	var pick uint64
	for i, v := range lb.vals {
		if v > bound {
			break
		}
		pick |= lb.bits[i] & free
	}
	p := cyclicFirst(pick, a.rotate[out])
	a.rotate[out] = (p + 1) % cell.Plane(a.env.Planes())
	i := 0
	for lb.bits[i]&(1<<uint(p)) == 0 {
		i++
	}
	return p, lb.vals[i]
}

// Buffered implements Algorithm (bufferless).
func (a *CPA) Buffered(cell.Port) int { return 0 }
