package traffic

import "ppsim/internal/cell"

// Lookahead is the event core's question to the arrival phase: when is the
// next arrival due, so idle slots can be elided without being executed.
// SpanFeed is its only implementation — the slab it has already read ahead
// is the answer — and sources opt in by implementing BatchSource.
//
// NextArrival returns the earliest slot strictly after `after` that holds an
// arrival, or cell.None when there is none before the feed's end. Queries
// must be monotone and interleave with consumption: callers query
// NextArrival(t-1) only when every slot <= t-1 has already been consumed
// (the natural engine pattern — peek ahead, jump, consume).
type Lookahead interface {
	NextArrival(after cell.Time) cell.Time
}

// EventFeed memoizes a Lookahead for the event-driven engine: the engine
// asks "when is the next arrival?" once per quiet stretch, and Next serves
// repeated queries from the cached answer while it remains valid (strictly
// ahead of the cursor), requerying only when the cached slot is consumed or
// stale.
type EventFeed struct {
	look Lookahead
	next cell.Time
	ok   bool
}

// NewEventFeed wraps look; a nil look yields a feed that always reports
// cell.None.
func NewEventFeed(look Lookahead) *EventFeed {
	return &EventFeed{look: look}
}

// Next returns the earliest arrival slot strictly after `after`, or
// cell.None. Queries must be monotone (non-decreasing `after`), matching
// the Lookahead contract it forwards to.
func (f *EventFeed) Next(after cell.Time) cell.Time {
	if f.look == nil {
		return cell.None
	}
	if f.ok && f.next > after {
		return f.next
	}
	f.next = f.look.NextArrival(after)
	f.ok = f.next != cell.None
	return f.next
}
