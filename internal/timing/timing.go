// Package timing models the rate-limited internal lines of the PPS.
//
// Section 2 of the paper: "A cell sent from an input-port i to a plane k is
// transmitted over r' time-slots; transmission takes place in the first
// time-slot of this period, and then the line between i and k is not
// utilized in the next r'-1 time-slots." Violating this is the *input
// constraint*; the *output constraint* is the symmetric rule for the lines
// between planes and output-ports.
//
// A Gate tracks one such line; a Matrix tracks the full N x K (or K x N)
// bank of lines on one side of the center stage.
package timing

import (
	"fmt"
	"math/bits"

	"ppsim/internal/cell"
)

// Gate is a view of one internal line of a Matrix, running at rate
// r = R/hold. Seizing the gate at slot t makes it busy for slots
// t .. t+hold-1. A Gate is a value: it points at the line's free-at slot in
// its matrix, so copies seize the same line.
type Gate struct {
	hold   int64
	freeAt *cell.Time // first slot at which the line may be seized again
}

// Free reports whether the gate may be seized at slot t.
func (g Gate) Free(t cell.Time) bool { return t >= *g.freeAt }

// FreeAt returns the earliest slot at which the gate may be seized.
func (g Gate) FreeAt() cell.Time { return *g.freeAt }

// Seize marks the gate busy starting at slot t. It returns an error if the
// gate is not free at t — the caller (the fabric) treats that as a rate
// constraint violation by the algorithm under test.
func (g Gate) Seize(t cell.Time) error {
	if !g.Free(t) {
		return fmt.Errorf("timing: gate seized at slot %d but busy until %d", t, *g.freeAt)
	}
	*g.freeAt = t + cell.Time(g.hold)
	return nil
}

// Matrix is a dense rows x cols bank of lines, all with the same hold time,
// stored once: each line costs only its free-at slot. For the input side
// rows index input-ports and cols index planes; for the output side rows
// index planes and cols index output-ports.
//
// When cols <= 64 the matrix additionally keeps one busy bitmask per row, so
// FreeColsMask answers "which columns may row r use at slot t" in O(busy)
// — at most hold-1 bits are ever busy per row, independent of cols. The
// masks are maintained by SeizeAt; rows seized through Gate().Seize directly
// are not tracked, so a matrix whose masks are consulted must be seized via
// SeizeAt (the fabric does this for the input-side matrix).
type Matrix struct {
	rows, cols int
	hold       int64
	freeAt     []cell.Time
	busy       []uint64 // per-row over-approximation of busy cols; nil when cols > 64
}

// NewMatrix returns a rows x cols matrix of gates with the given hold.
// It panics on non-positive dimensions or a hold below one slot.
func NewMatrix(rows, cols int, hold int64) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic("timing: matrix dimensions must be positive")
	}
	if hold < 1 {
		panic("timing: gate hold must be >= 1 slot")
	}
	m := &Matrix{rows: rows, cols: cols, hold: hold, freeAt: make([]cell.Time, rows*cols)}
	if cols <= 64 {
		m.busy = make([]uint64, rows)
	}
	return m
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Gate returns the gate at (row, col).
func (m *Matrix) Gate(row, col int) Gate {
	if row < 0 || row >= m.rows || col < 0 || col >= m.cols {
		panic(fmt.Sprintf("timing: gate (%d,%d) out of %dx%d matrix", row, col, m.rows, m.cols))
	}
	return Gate{hold: m.hold, freeAt: &m.freeAt[row*m.cols+col]}
}

// SeizeAt seizes gate (row, col) at slot t, keeping the row's busy mask (if
// any) current. Callers that consult FreeColsMask must seize exclusively
// through this method.
func (m *Matrix) SeizeAt(row, col int, t cell.Time) error {
	if err := m.Gate(row, col).Seize(t); err != nil {
		return err
	}
	if m.busy != nil {
		m.busy[row] |= 1 << uint(col)
	}
	return nil
}

// FreeColsMask returns the bitmask of columns whose gate in the given row is
// free at slot t. Only valid on a matrix with cols <= 64. Queries for a row
// must come with non-decreasing t: busy bits whose gates have expired by t
// are cleared as they are discovered, which keeps each call O(busy bits) —
// at most hold-1 per row — but would mis-report a later query at an earlier
// slot.
func (m *Matrix) FreeColsMask(row int, t cell.Time) uint64 {
	if m.busy == nil {
		panic("timing: FreeColsMask on an unmasked matrix (cols > 64)")
	}
	b := m.busy[row]
	base := row * m.cols
	for rem := b; rem != 0; rem &= rem - 1 {
		c := bits.TrailingZeros64(rem)
		if t >= m.freeAt[base+c] {
			b &^= 1 << uint(c)
		}
	}
	m.busy[row] = b
	return ^uint64(0) >> uint(64-m.cols) &^ b
}
