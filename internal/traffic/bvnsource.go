package traffic

import (
	"fmt"

	"ppsim/internal/bvn"
	"ppsim/internal/cell"
)

// BvN is deterministic traffic realizing a doubly-substochastic rate matrix
// through its Birkhoff–von Neumann decomposition: each slot serves one
// permutation chosen by deficit weighted round-robin, and each (input,
// output) cell of the served permutation emits subject to deficit thinning
// by its real-demand fraction. The result approaches the target rates with
// per-port burstiness bounded by roughly the number of permutations in the
// decomposition — smooth, admissible, and fully reproducible.
type BvN struct {
	n     int
	d     *bvn.Decomposition
	sched *bvn.Schedule
	// emitCredit implements the per-cell thinning of padded slack.
	emitCredit [][]float64
	until      cell.Time
	guard      slotGuard
}

// NewBvN builds the source for an n x n rate matrix lambda (row-major,
// lambda[i][j] = cells per slot from input i to output j). tol <= 0 uses
// the decomposition default.
func NewBvN(lambda [][]float64, until cell.Time, tol float64) (*BvN, error) {
	n := len(lambda)
	d, err := bvn.Decompose(lambda, tol)
	if err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	ec := make([][]float64, n)
	for i := range ec {
		ec[i] = make([]float64, n)
	}
	return &BvN{
		n:          n,
		d:          d,
		sched:      bvn.NewSchedule(d),
		emitCredit: ec,
		until:      until,
	}, nil
}

// Permutations reports the decomposition size (the burstiness scale).
func (b *BvN) Permutations() int { return len(b.d.Perms) }

// Arrivals implements Source: one slot of the deficit-weighted schedule.
// Slots must be queried in increasing order; the scheduler advances once per
// queried slot.
func (b *BvN) Arrivals(t cell.Time, dst []Arrival) []Arrival {
	b.guard.claim(t)
	if b.until != cell.None && t >= b.until {
		return dst
	}
	idx := b.sched.Next()
	if idx < 0 {
		return dst
	}
	const eps = 1e-9
	for r, c := range b.d.Perms[idx] {
		frac := b.d.RealFraction(r, c)
		if frac <= 0 {
			continue
		}
		b.emitCredit[r][c] += frac
		if b.emitCredit[r][c] >= 1-eps {
			b.emitCredit[r][c] -= 1
			dst = append(dst, Arrival{In: cell.Port(r), Out: cell.Port(c)})
		}
	}
	return dst
}

// End implements Source.
func (b *BvN) End() cell.Time { return b.until }

// AppendArrivals implements BatchSource.
func (b *BvN) AppendArrivals(dst []Arrival, from, to cell.Time) []Arrival {
	return appendPerSlot(b, dst, from, to)
}
