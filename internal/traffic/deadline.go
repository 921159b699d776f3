package traffic

import (
	"fmt"

	"ppsim/internal/cell"
)

// WithDeadline wraps a source so every arrival carries an absolute departure
// deadline of its arrival slot plus rel. rel must be >= 1, which keeps real
// deadlines strictly positive — Deadline 0 stays the unambiguous "no
// deadline" sentinel on both Arrival and cell.Cell. The wrapper changes
// nothing else about the stream (same slots, same inputs, same outputs), so
// it composes with every generator, trace and shaper; when the inner source
// implements BatchSource so does the wrapper, preserving read-ahead and
// event-engine eligibility.
func WithDeadline(src Source, rel cell.Time) Source {
	if rel < 1 {
		panic(fmt.Sprintf("traffic: deadline offset must be >= 1, got %d", rel))
	}
	d := deadlined{src: src, rel: rel}
	if batch, ok := src.(BatchSource); ok {
		return &deadlinedBatch{deadlined: d, batch: batch}
	}
	return &d
}

type deadlined struct {
	src Source
	rel cell.Time
}

// Arrivals implements Source: the inner arrivals with Deadline stamped.
// Arrivals the inner source already stamped (nested WithDeadline) keep their
// earlier — necessarily tighter or equal — deadline.
func (d *deadlined) Arrivals(t cell.Time, dst []Arrival) []Arrival {
	start := len(dst)
	dst = d.src.Arrivals(t, dst)
	for i := start; i < len(dst); i++ {
		if dst[i].Deadline == 0 {
			dst[i].Deadline = t + d.rel
		}
	}
	return dst
}

// End implements Source.
func (d *deadlined) End() cell.Time { return d.src.End() }

// deadlinedBatch is the variant returned when the inner source supports span
// generation. Keeping it a separate type (rather than giving deadlined an
// AppendArrivals that fails at runtime) means a wrapped per-slot source never
// falsely satisfies the BatchSource check in the feed and the engine selector.
type deadlinedBatch struct {
	deadlined
	batch BatchSource
}

// AppendArrivals implements BatchSource: the inner slab with Deadline
// stamped off each arrival's own slot, mirroring the per-slot wrapper.
func (d *deadlinedBatch) AppendArrivals(dst []Arrival, from, to cell.Time) []Arrival {
	start := len(dst)
	dst = d.batch.AppendArrivals(dst, from, to)
	for i := start; i < len(dst); i++ {
		if dst[i].Deadline == 0 {
			dst[i].Deadline = dst[i].T + d.rel
		}
	}
	return dst
}
