package experiments

import (
	"fmt"

	"ppsim/internal/cell"
	"ppsim/internal/queue"
)

// jitterRegulator delays cells toward a constant target delay d, holding at
// most b cells (b <= 0 means unbounded): the mechanism the paper's
// Discussion connects to its lower bounds: "Jitter regulators that capture
// jitter control mechanisms use an internal buffer to shape the traffic ...
// It might be possible to translate our lower bounds on the relative
// queuing delay to bounds on the size of this internal buffer" (Section 6,
// citing Mansour & Patt-Shamir).
//
// The regulator releases each cell of a flow a fixed target delay d after
// its arrival, turning an uneven (jittery) arrival stream into an evenly
// spaced one. With an unbounded buffer and d at least the arrival stream's
// worst delay variation, the output jitter is zero. With a bounded buffer
// of size b the regulator is forced to release early when the buffer fills,
// and residual jitter appears — experiment E15 uses exactly this trade-off
// to illustrate why a PPS with the measured relative queuing delay needs
// correspondingly large downstream regulator buffers.
type jitterRegulator struct {
	d   cell.Time
	b   int
	buf queue.FIFO[cell.Cell]

	released  uint64
	early     uint64 // cells released before their target (buffer pressure)
	lastSlot  cell.Time
	minJ      cell.Time // min observed release delay
	maxJ      cell.Time // max observed release delay
	everymade bool
}

// newJitterRegulator returns a regulator with target delay d >= 0 and
// buffer bound b (b <= 0 = unbounded).
func newJitterRegulator(d cell.Time, b int) (*jitterRegulator, error) {
	if d < 0 {
		return nil, fmt.Errorf("jitterreg: target delay must be >= 0, got %d", d)
	}
	return &jitterRegulator{d: d, b: b, lastSlot: -1}, nil
}

// step advances one slot: the arriving cells (at most a handful; the
// regulator is per-flow or per-port downstream equipment) enter the buffer,
// then every cell whose target has expired is released, and if the buffer
// still exceeds its bound the oldest cells are force-released early.
// Released cells are appended to dst with Depart set to the release slot.
//
// Cells must arrive in nondecreasing Depart order of the upstream switch
// (their Arrive field here is the upstream departure slot, set by the
// caller).
func (r *jitterRegulator) step(t cell.Time, arrivals []cell.Cell, dst []cell.Cell) ([]cell.Cell, error) {
	if t <= r.lastSlot {
		return dst, fmt.Errorf("jitterreg: non-monotone slot %d after %d", t, r.lastSlot)
	}
	r.lastSlot = t
	for _, c := range arrivals {
		if c.Arrive > t {
			return dst, fmt.Errorf("jitterreg: cell %v arrives in the future of slot %d", c, t)
		}
		r.buf.Push(c)
	}
	release := func(c cell.Cell) {
		c.Depart = t
		delay := t - c.Arrive
		if !r.everymade || delay < r.minJ {
			r.minJ = delay
		}
		if !r.everymade || delay > r.maxJ {
			r.maxJ = delay
		}
		r.everymade = true
		if delay < r.d {
			r.early++
		}
		r.released++
		dst = append(dst, c)
	}
	// Timely releases.
	for !r.buf.Empty() && t-r.buf.Peek().Arrive >= r.d {
		release(r.buf.Pop())
	}
	// Overflow releases: the bounded buffer forces early departures.
	for r.b > 0 && r.buf.Len() > r.b {
		release(r.buf.Pop())
	}
	return dst, nil
}

// jitter reports the observed release-delay spread (max - min), the
// regulator's output jitter. Zero until two cells have been released.
func (r *jitterRegulator) jitter() cell.Time {
	if r.released < 2 {
		return 0
	}
	return r.maxJ - r.minJ
}
