package traffic

import "ppsim/internal/cell"

// Span sizing for SpanFeed's slab refills. Spans start at one slot and adapt
// toward targetSlabCells arrivals per slab: dense sources settle on short
// spans (bounded slab memory), sparse sources stretch toward spanMax so long
// silent stretches cost one batch call instead of thousands of per-slot
// interface crossings. The doubling/halving thresholds leave a 2x hysteresis
// band so the span does not oscillate at a stable arrival rate.
const (
	spanInit        = cell.Time(1)
	spanMax         = cell.Time(4096)
	targetSlabCells = 4096
)

// SpanFeed adapts a Source to the harness's arrival phase. A BatchSource is
// read ahead of the clock: the feed pulls one slab of arrivals per span,
// serves each slot as a subslice — O(1) per slot, no interface call, no copy
// — and is the run's Lookahead: the next arrival is the slab's front entry.
// Slabs are contiguous (each starts where the previous one ended), so every
// slot below `to` has been generated exactly once and a stateful source's
// stream equals a stepped replay by construction. Any other source gets a
// per-slot pass-through that behaves exactly like calling it directly, at
// its slot.
//
// Slots must be consumed through SlotArrivals in strictly increasing order,
// interleaved with monotone NextArrival queries; skipping a slot that holds
// arrivals panics rather than losing them.
type SpanFeed struct {
	src   Source
	batch BatchSource // nil → pass-through mode

	end  cell.Time // first slot the harness never consumes; cell.None = unbounded
	span cell.Time // current span length (slots per slab)

	slab []Arrival // allocated by the first refill, at targetSlabCells
	cur  int       // first unconsumed slab entry
	to   cell.Time // first slot not yet generated

	scratch []Arrival // pass-through per-slot buffer
}

// NewSpanFeed wraps src for consumption of slots in [0, end); end = cell.None
// means unbounded — NextArrival then only terminates if the source ends or
// eventually emits.
func NewSpanFeed(src Source, end cell.Time) *SpanFeed {
	f := &SpanFeed{src: src, end: end, span: spanInit}
	f.batch, _ = src.(BatchSource)
	return f
}

// Batched reports whether the feed reads ahead in spans — the capability the
// event core needs.
func (f *SpanFeed) Batched() bool { return f.batch != nil }

// Look returns the feed as the run's Lookahead, or nil for a pass-through
// feed (a per-slot source cannot be asked about slots it has not reached).
func (f *SpanFeed) Look() Lookahead {
	if f.batch == nil {
		return nil
	}
	return f
}

// SlotArrivals returns slot t's arrivals. The returned slice is only valid
// until the next SlotArrivals or NextArrival call (it aliases either the
// slab or the per-slot scratch buffer).
func (f *SpanFeed) SlotArrivals(t cell.Time) []Arrival {
	if f.batch == nil {
		f.scratch = f.src.Arrivals(t, f.scratch[:0])
		return f.scratch
	}
	for t >= f.to && f.cur == len(f.slab) {
		if !f.refill() {
			break
		}
	}
	start := f.cur
	if start < len(f.slab) && f.slab[start].T < t {
		panic("traffic: span feed consumed out of order")
	}
	i := start
	for i < len(f.slab) && f.slab[i].T == t {
		i++
	}
	f.cur = i
	return f.slab[start:i]
}

// refill replaces the exhausted slab with the next contiguous span and
// adapts the span length toward targetSlabCells arrivals per slab. It
// reports false once the scan has reached min(feed end, src.End()); End is
// re-read every time because a Regulator's turns finite only when its
// backlog drains.
func (f *SpanFeed) refill() bool {
	limit := f.end
	if e := f.src.End(); e != cell.None && (limit == cell.None || e < limit) {
		limit = e
	}
	to := f.to + f.span
	if limit != cell.None && to > limit {
		to = limit
	}
	if to <= f.to {
		return false
	}
	if f.slab == nil {
		// Sized once: growing by append would make the run's allocated bytes
		// depend on which slab happens to cross a growth step.
		f.slab = make([]Arrival, 0, targetSlabCells)
	}
	f.slab = f.batch.AppendArrivals(f.slab[:0], f.to, to)
	f.cur, f.to = 0, to
	got := len(f.slab)
	switch {
	case got > 2*targetSlabCells && f.span > 1:
		f.span /= 2
	case 2*got < targetSlabCells && f.span < spanMax:
		f.span *= 2
	}
	return true
}

// NextArrival implements Lookahead: the slab's front entry, after pulling
// spans until one is non-empty or the scan reaches the end.
func (f *SpanFeed) NextArrival(after cell.Time) cell.Time {
	for f.cur == len(f.slab) {
		if !f.refill() {
			return cell.None
		}
	}
	if f.slab[f.cur].T <= after {
		panic("traffic: span feed NextArrival would skip unconsumed arrivals")
	}
	return f.slab[f.cur].T
}
