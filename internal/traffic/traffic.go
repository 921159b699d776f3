// Package traffic generates and validates the cell arrival processes used by
// the experiments.
//
// The paper restricts all lower-bound traffics to the (R, B) leaky-bucket
// model (Definition 3): in every time interval of length tau, the number of
// cells arriving to the switch that share an input-port or an output-port is
// at most tau*R + B, where B is a fixed burstiness factor. With the paper's
// normalization R = 1 cell/slot, conformance is equivalent to a virtual
// queue fed by the arrivals and served at one cell per slot never exceeding
// a backlog of B (Cruz's calculus); Validator implements exactly that test,
// and Regulator shapes arbitrary demand into a conformant stream.
package traffic

import (
	"cmp"
	"fmt"
	"slices"

	"ppsim/internal/cell"
)

// Arrival is one cell arrival event: a cell for output Out appears at input
// In at the slot under consideration.
type Arrival struct {
	In  cell.Port
	Out cell.Port

	// T is the arrival's slot, stamped by BatchSource.AppendArrivals so a
	// multi-slot slab stays self-describing. Per-slot Arrivals leaves it
	// zero — the slot is the call argument there.
	T cell.Time

	// Deadline is the absolute slot by which the cell must depart to count
	// as on time under deadline-aware admission; 0 means no deadline. It is
	// assigned by WithDeadline — plain sources leave it zero.
	Deadline cell.Time
}

// Source produces the arrival process. Implementations must be
// deterministic given their construction parameters (randomized sources take
// explicit seeds), so that the PPS and the shadow switch can replay the same
// stream.
//
// A plain Source is called exactly once per slot, at its slot, so it may be
// closed-loop (framer.Segmenter accepts packets mid-run); the price is the
// stepped core. A source whose stream is fixed in advance — the paper's
// model, Definition 3 — opts into being read ahead of the clock, and into
// the event core, by also implementing BatchSource.
type Source interface {
	// Arrivals appends the arrivals of slot t to dst and returns the
	// extended slice. A source must emit at most one arrival per
	// input-port per slot (at most one cell arrives per input per slot).
	Arrivals(t cell.Time, dst []Arrival) []Arrival

	// End returns the first slot at and after which the source is
	// permanently silent, or cell.None when the source is unbounded.
	End() cell.Time
}

// BatchSource is the read-ahead capability: SpanFeed pulls one slab of
// arrivals per span instead of one interface call per slot, ahead of the
// clock, and answers "when is the next arrival?" from the slab.
//
// AppendArrivals appends every arrival of the half-open span [from, to) to
// dst, in slot order (and per-slot in the same order Arrivals would emit),
// with each appended Arrival's T field stamped with its slot. The result must
// be exactly the concatenation a slot-by-slot Arrivals replay over the span
// would produce — for the stateful generators it is that replay
// (appendPerSlot). Spans obey the same strictly-increasing contract as
// Arrivals: each call's `from` must be past every slot already generated.
type BatchSource interface {
	Source
	AppendArrivals(dst []Arrival, from, to cell.Time) []Arrival
}

// Trace is a finite, explicit arrival schedule. It is the workhorse of the
// adversarial constructions: each lower-bound proof is realized by building
// a Trace slot by slot.
type Trace struct {
	// slots holds each populated slot's arrivals ordered by input-port, and
	// keys the populated slots in ascending order; Add maintains both, so
	// every read is pure and one Trace may feed concurrent runs.
	slots map[cell.Time][]Arrival
	keys  []cell.Time
	end   cell.Time // one past the last populated slot
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{slots: make(map[cell.Time][]Arrival)}
}

// Add schedules one arrival at slot t. It returns an error if the input-port
// already has an arrival at t (at most one cell per input per slot).
func (tr *Trace) Add(t cell.Time, in, out cell.Port) error {
	if t < 0 {
		return fmt.Errorf("traffic: arrival at negative slot %d", t)
	}
	as := tr.slots[t]
	i, dup := slices.BinarySearchFunc(as, in, func(a Arrival, in cell.Port) int { return cmp.Compare(a.In, in) })
	if dup {
		return fmt.Errorf("traffic: input %d already has an arrival at slot %d", in, t)
	}
	if len(as) == 0 {
		// Constructions build slot by slot, so a new slot is almost always
		// past every earlier one and this is an append.
		k, _ := slices.BinarySearch(tr.keys, t)
		tr.keys = slices.Insert(tr.keys, k, t)
	}
	tr.slots[t] = slices.Insert(as, i, Arrival{In: in, Out: out})
	if t+1 > tr.end {
		tr.end = t + 1
	}
	return nil
}

// MustAdd is Add but panics on error; for use by constructions that manage
// slots themselves and treat a collision as a bug.
func (tr *Trace) MustAdd(t cell.Time, in, out cell.Port) {
	if err := tr.Add(t, in, out); err != nil {
		panic(err)
	}
}

// Arrivals implements Source; a slot's arrivals come out ordered by input.
func (tr *Trace) Arrivals(t cell.Time, dst []Arrival) []Arrival {
	return append(dst, tr.slots[t]...)
}

// End implements Source.
func (tr *Trace) End() cell.Time { return tr.end }

// AppendArrivals implements BatchSource closed-form: a binary search finds
// the first populated slot in the span and the walk visits only populated
// slots, so silent stretches cost nothing regardless of span length.
func (tr *Trace) AppendArrivals(dst []Arrival, from, to cell.Time) []Arrival {
	i, _ := slices.BinarySearch(tr.keys, from)
	for ; i < len(tr.keys) && tr.keys[i] < to; i++ {
		t := tr.keys[i]
		start := len(dst)
		dst = append(dst, tr.slots[t]...)
		stamp(dst[start:], t)
	}
	return dst
}

// Count reports the total number of scheduled arrivals.
func (tr *Trace) Count() int {
	n := 0
	for _, as := range tr.slots {
		n += len(as)
	}
	return n
}

// Shift returns a copy of the trace with every arrival delayed by d slots.
func (tr *Trace) Shift(d cell.Time) *Trace {
	out := NewTrace()
	for _, t := range tr.keys {
		for _, a := range tr.slots[t] {
			out.MustAdd(t+d, a.In, a.Out)
		}
	}
	return out
}

// Append merges other into tr, delaying other's arrivals by offset slots.
// It returns an error on any per-input per-slot collision.
func (tr *Trace) Append(other *Trace, offset cell.Time) error {
	for _, t := range other.keys {
		for _, a := range other.slots[t] {
			if err := tr.Add(t+offset, a.In, a.Out); err != nil {
				return err
			}
		}
	}
	return nil
}

// Concat is a sequential composition of sources: each source is replayed in
// order, the next starting when the previous one ends plus its gap. All
// sources must be finite. This realizes the proof technique of Theorem 6
// ("LB, a sequential composition of the traffics A_i").
type Concat struct {
	trace *Trace
}

// NewConcat flattens the given (source, gap) pairs into a single trace.
// It returns an error if any source is unbounded or arrivals collide.
func NewConcat(parts ...Part) (*Concat, error) {
	out := NewTrace()
	var at cell.Time
	for i, p := range parts {
		end := p.Source.End()
		if end == cell.None {
			return nil, fmt.Errorf("traffic: part %d is unbounded", i)
		}
		var buf []Arrival
		for t := cell.Time(0); t < end; t++ {
			buf = p.Source.Arrivals(t, buf[:0])
			for _, a := range buf {
				if err := out.Add(at+t, a.In, a.Out); err != nil {
					return nil, err
				}
			}
		}
		at += end + p.GapAfter
	}
	return &Concat{trace: out}, nil
}

// Part is one stage of a Concat: a finite source followed by GapAfter idle
// slots.
type Part struct {
	Source   Source
	GapAfter cell.Time
}

// Arrivals implements Source.
func (c *Concat) Arrivals(t cell.Time, dst []Arrival) []Arrival {
	return c.trace.Arrivals(t, dst)
}

// End implements Source.
func (c *Concat) End() cell.Time { return c.trace.End() }

// AppendArrivals implements BatchSource via the flattened trace.
func (c *Concat) AppendArrivals(dst []Arrival, from, to cell.Time) []Arrival {
	return c.trace.AppendArrivals(dst, from, to)
}
