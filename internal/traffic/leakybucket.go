package traffic

import (
	"fmt"

	"ppsim/internal/cell"
)

// Validator checks (R, B) leaky-bucket conformance of an arrival stream with
// the paper's normalization R = 1 cell per slot (Definition 3).
//
// For each input-port and each output-port it maintains a virtual queue fed
// by that port's arrivals and served at one cell per slot. By Cruz's
// network-calculus identity, the supremum over all windows [t, t+tau) of
// (arrivals - tau*R) equals the maximum backlog of that virtual queue, so
// the stream is (R, B)-conformant if and only if every backlog stays <= B.
type Validator struct {
	n       int
	inQ     []int64
	outQ    []int64
	maxIn   int64
	maxOut  int64
	last    cell.Time
	started bool
}

// NewValidator returns a validator for an n x n switch.
func NewValidator(n int) *Validator {
	return &Validator{n: n, inQ: make([]int64, n), outQ: make([]int64, n), last: -1}
}

// Observe records the arrivals of slot t. Slots must be presented in
// strictly increasing order; missing slots are treated as silent.
//
// The recurrence is Q(t) = max(0, Q(t-1) + a(t) - R) with R = 1: the slot in
// which a cell arrives already counts toward the window length tau, so one
// unit of service is credited within the arrival slot itself. The maximum of
// Q over time is then exactly the minimal conformant B.
func (v *Validator) Observe(t cell.Time, arrivals []Arrival) error {
	if v.started && t <= v.last {
		return fmt.Errorf("traffic: Observe slots must increase (got %d after %d)", t, v.last)
	}
	// Drain the virtual queues for any silent slots skipped since last.
	drain := int64(t-v.last) - 1
	if !v.started {
		drain = 0
	}
	v.started = true
	v.last = t
	if drain > 0 {
		for p := 0; p < v.n; p++ {
			v.inQ[p] -= drain
			if v.inQ[p] < 0 {
				v.inQ[p] = 0
			}
			v.outQ[p] -= drain
			if v.outQ[p] < 0 {
				v.outQ[p] = 0
			}
		}
	}
	for _, a := range arrivals {
		if int(a.In) < 0 || int(a.In) >= v.n || int(a.Out) < 0 || int(a.Out) >= v.n {
			return fmt.Errorf("traffic: arrival %v outside %dx%d switch", a, v.n, v.n)
		}
		v.inQ[a.In]++
		v.outQ[a.Out]++
	}
	// One unit of service within this slot, then record the residual excess.
	for p := 0; p < v.n; p++ {
		if v.inQ[p] > 0 {
			v.inQ[p]--
		}
		if v.outQ[p] > 0 {
			v.outQ[p]--
		}
		if v.inQ[p] > v.maxIn {
			v.maxIn = v.inQ[p]
		}
		if v.outQ[p] > v.maxOut {
			v.maxOut = v.outQ[p]
		}
	}
	return nil
}

// Burstiness returns the measured burstiness factor B: the smallest B for
// which the observed stream is (R=1, B) conformant.
func (v *Validator) Burstiness() int64 {
	if v.maxOut > v.maxIn {
		return v.maxOut
	}
	return v.maxIn
}

// InputBurstiness returns the input-side component of the burstiness.
func (v *Validator) InputBurstiness() int64 { return v.maxIn }

// OutputBurstiness returns the output-side component of the burstiness.
func (v *Validator) OutputBurstiness() int64 { return v.maxOut }

// MeasureSource replays a finite source through a fresh Validator and
// returns the measured burstiness. It returns an error for unbounded
// sources or malformed arrival streams.
func MeasureSource(n int, src Source) (int64, error) {
	end := src.End()
	if end == cell.None {
		return 0, fmt.Errorf("traffic: cannot measure an unbounded source")
	}
	v := NewValidator(n)
	var buf []Arrival
	for t := cell.Time(0); t < end; t++ {
		buf = src.Arrivals(t, buf[:0])
		if err := v.Observe(t, buf); err != nil {
			return 0, err
		}
	}
	return v.Burstiness(), nil
}

// WindowBurstiness computes, for a finite source, the maximum over all
// windows of exactly tau slots of (cells sharing a port) - tau*R, per
// output-port. Proposition 15 is demonstrated by showing this grows without
// bound in tau for congestion traffic, whereas it is capped by B for any
// (R, B) leaky-bucket stream.
func WindowBurstiness(n int, src Source, tau cell.Time) (int64, error) {
	end := src.End()
	if end == cell.None {
		return 0, fmt.Errorf("traffic: cannot measure an unbounded source")
	}
	if tau <= 0 {
		return 0, fmt.Errorf("traffic: window must be positive, got %d", tau)
	}
	// perSlot[j][t] = cells for output j arriving at slot t.
	counts := make([][]int64, n)
	for j := range counts {
		counts[j] = make([]int64, end)
	}
	var buf []Arrival
	for t := cell.Time(0); t < end; t++ {
		buf = src.Arrivals(t, buf[:0])
		for _, a := range buf {
			counts[a.Out][t]++
		}
	}
	var worst int64
	for j := 0; j < n; j++ {
		var window int64
		for t := cell.Time(0); t < end; t++ {
			window += counts[j][t]
			if t >= tau {
				window -= counts[j][t-tau]
			}
			w := tau
			if t+1 < tau {
				w = t + 1
			}
			if excess := window - int64(w); excess > worst {
				worst = excess
			}
		}
	}
	return worst, nil
}

// Regulator shapes an arbitrary demand source into an (R=1, B) conformant
// stream by delaying cells in per-input shaping queues. A cell for output j
// is released only when output j's token bucket (capacity B+1, refill 1 per
// slot) has a token; inputs release at most one cell per slot by
// construction of the model.
//
// The regulator preserves per-flow order. It is used to build conformant
// versions of bursty demands and in property tests asserting that its output
// always validates.
type Regulator struct {
	n      int
	inner  Source
	b      int64
	tokens []int64
	queues [][]Arrival // per-input FIFO of pending arrivals
	last   cell.Time
	walked cell.Time // next slot to pull from inner
}

// NewRegulator wraps src (which must be bounded for End to be meaningful)
// with an (R=1, B) shaper for an n x n switch.
func NewRegulator(n int, b int64, src Source) *Regulator {
	tok := make([]int64, n)
	for j := range tok {
		tok[j] = b + 1 // bucket starts full: a burst of B+1 <= tau*R+B for tau>=1
	}
	return &Regulator{
		n: n, inner: src, b: b,
		tokens: tok,
		queues: make([][]Arrival, n),
		last:   -1,
	}
}

// Arrivals implements Source: one shaping step. Slots must be queried in
// increasing order.
func (r *Regulator) Arrivals(t cell.Time, dst []Arrival) []Arrival {
	if t <= r.last {
		panic("traffic: Regulator slots must be queried in increasing order")
	}
	// Refill tokens for elapsed slots (one per slot, capped).
	gap := int64(t - r.last)
	if r.last < 0 {
		gap = 0 // bucket starts full
	}
	for j := 0; j < r.n; j++ {
		r.tokens[j] += gap
		if r.tokens[j] > r.b+1 {
			r.tokens[j] = r.b + 1
		}
	}
	r.last = t

	// Pull demand for every slot up to and including t.
	var buf []Arrival
	for ; r.walked <= t; r.walked++ {
		if end := r.inner.End(); end != cell.None && r.walked >= end {
			break
		}
		buf = r.inner.Arrivals(r.walked, buf[:0])
		for _, a := range buf {
			r.queues[a.In] = append(r.queues[a.In], a)
		}
	}

	// Release at most one cell per input, head-of-line, token permitting.
	for i := 0; i < r.n; i++ {
		q := r.queues[i]
		if len(q) == 0 {
			continue
		}
		a := q[0]
		if r.tokens[a.Out] <= 0 {
			continue // head-of-line blocks to preserve flow order
		}
		r.tokens[a.Out]--
		r.queues[i] = q[1:]
		dst = append(dst, a)
	}
	return dst
}

// AppendArrivals implements BatchSource. The span stops at End, which turns
// finite once the backlog has drained: nothing can be released after that.
func (r *Regulator) AppendArrivals(dst []Arrival, from, to cell.Time) []Arrival {
	return appendPerSlot(r, dst, from, to)
}

// End implements Source. The regulator itself cannot know when its backlog
// will drain, so it reports unbounded unless both the demand has ended and
// the queues are empty — End is dynamic, and SpanFeed re-reads it at every
// refill so a drained regulator stops being scanned.
func (r *Regulator) End() cell.Time {
	end := r.inner.End()
	if end == cell.None {
		return cell.None
	}
	for _, q := range r.queues {
		if len(q) > 0 {
			return cell.None
		}
	}
	if r.walked < end {
		return cell.None
	}
	if r.last+1 > end {
		return r.last + 1
	}
	return end
}

// Backlog reports the number of cells currently held in shaping queues.
func (r *Regulator) Backlog() int {
	n := 0
	for _, q := range r.queues {
		n += len(q)
	}
	return n
}
