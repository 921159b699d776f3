package traffic

import (
	"fmt"
	"slices"

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
		if err := inSwitch(v.n, a); err != nil {
			return err
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

// inSwitch reports an arrival whose ports lie outside an n x n switch.
func inSwitch(n int, a Arrival) error {
	if int(a.In) < 0 || int(a.In) >= n || int(a.Out) < 0 || int(a.Out) >= n {
		return fmt.Errorf("traffic: arrival %v outside %dx%d switch", a, n, n)
	}
	return nil
}

// MeasureSource replays a finite source through a fresh Validator and
// returns the measured burstiness. It returns an error for unbounded
// sources or malformed arrival streams.
func MeasureSource(n int, src Source) (int64, error) {
	end := src.End()
	if end == cell.None {
		return 0, fmt.Errorf("traffic: cannot measure an unbounded source")
	}
	// Observe drains the silent slots it skips: present only populated ones.
	v := NewValidator(n)
	for as := appendSpan(src, nil, 0, end); len(as) > 0; {
		k := 1
		for k < len(as) && as[k].T == as[0].T {
			k++
		}
		if err := v.Observe(as[0].T, as[:k]); err != nil {
			return 0, err
		}
		as = as[k:]
	}
	return v.Burstiness(), nil
}

// WindowBurstiness computes, for a finite source, the maximum over all
// windows of exactly tau slots of (cells sharing a port) - tau*R, per
// output-port. Proposition 15 is demonstrated by showing this grows without
// bound in tau for congestion traffic, whereas it is capped by B for any
// (R, B) leaky-bucket stream.
//
// The window ending at slot t covers (t-tau, t], clipped at slot 0, and
// its excess is its cell count minus its length. A slot with no arrival
// for the output drops a cell out of the window or lengthens it, so the
// excess only peaks at arrival slots: the scan visits each output's
// arrivals with a two-pointer window and costs O(cells + n), whatever the
// horizon.
func WindowBurstiness(n int, src Source, tau cell.Time) (int64, error) {
	end := src.End()
	if end == cell.None {
		return 0, fmt.Errorf("traffic: cannot measure an unbounded source")
	}
	if tau <= 0 {
		return 0, fmt.Errorf("traffic: window must be positive, got %d", tau)
	}
	arrs := appendSpan(src, nil, 0, end)
	// Counting sort by output: at[first[j]:first[j+1]] holds output j's
	// arrival slots in ascending order.
	first := make([]int, n+1)
	for _, a := range arrs {
		if err := inSwitch(n, a); err != nil {
			return 0, err
		}
		first[a.Out+1]++
	}
	for j := 0; j < n; j++ {
		first[j+1] += first[j]
	}
	at := make([]cell.Time, len(arrs))
	next := slices.Clone(first[:n])
	for _, a := range arrs {
		at[next[a.Out]] = a.T
		next[a.Out]++
	}
	var worst int64
	for j := 0; j < n; j++ {
		ts := at[first[j]:first[j+1]]
		lo := 0
		for i, t := range ts {
			if i+1 < len(ts) && ts[i+1] == t {
				continue // the window ending at t counts all of t's cells
			}
			for ts[lo] <= t-tau {
				lo++
			}
			if excess := int64(i+1-lo) - int64(min(tau, t+1)); excess > worst {
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
// always validates. Its shaping queues are lists through one node slab, so
// a run grows one slab to its peak backlog rather than a queue per input,
// and in steady state nothing allocates: released nodes are reused, and the
// pull buffer keeps its backing array across slots.
type Regulator struct {
	n      int
	inner  Source
	b      int64
	tokens []int64
	queues []regQueue // per-input FIFO of pending arrivals
	nodes  []regNode  // the queues' slab
	free   int32      // first node of the free list
	held   int        // cells across all queues
	pull   []Arrival  // reused buffer for the inner source's slots
	last   cell.Time
	walked cell.Time // next slot to pull from inner
}

// regQueue and regNode link by slab index; -1 ends a list.
type regQueue struct{ head, tail int32 }

type regNode struct {
	a    Arrival
	next int32 // in the input's queue, or on the free list
}

// NewRegulator wraps src (which must be bounded for End to be meaningful)
// with an (R=1, B) shaper for an n x n switch.
func NewRegulator(n int, b int64, src Source) *Regulator {
	tok := make([]int64, n)
	for j := range tok {
		tok[j] = b + 1 // bucket starts full: a burst of B+1 <= tau*R+B for tau>=1
	}
	queues := make([]regQueue, n)
	for i := range queues {
		queues[i] = regQueue{-1, -1}
	}
	return &Regulator{n: n, inner: src, b: b, tokens: tok, queues: queues, free: -1, last: -1}
}

// push appends a to its input's queue in a free node, or a new one.
func (r *Regulator) push(a Arrival) {
	x := r.free
	if x < 0 {
		x = int32(len(r.nodes))
		r.nodes = append(r.nodes, regNode{})
	} else {
		r.free = r.nodes[x].next
	}
	r.nodes[x] = regNode{a: a, next: -1}
	if q := &r.queues[a.In]; q.tail < 0 {
		q.head, q.tail = x, x
	} else {
		r.nodes[q.tail].next, q.tail = x, x
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
	for ; r.walked <= t; r.walked++ {
		if end := r.inner.End(); end != cell.None && r.walked >= end {
			break
		}
		r.pull = r.inner.Arrivals(r.walked, r.pull[:0])
		for _, a := range r.pull {
			r.push(a)
		}
		r.held += len(r.pull)
	}

	// Release at most one cell per input, head-of-line, token permitting.
	for i := range r.queues {
		q := &r.queues[i]
		if q.head < 0 {
			continue
		}
		x, nd := q.head, &r.nodes[q.head]
		if r.tokens[nd.a.Out] <= 0 {
			continue // head-of-line blocks to preserve flow order
		}
		r.tokens[nd.a.Out]--
		r.held--
		dst = append(dst, nd.a)
		if q.head = nd.next; q.head < 0 {
			q.tail = -1
		}
		nd.next, r.free = r.free, x
	}
	return dst
}

// AppendArrivals implements BatchSource. The span stops at End, which turns
// finite once the backlog has drained: nothing can be released after that.
func (r *Regulator) AppendArrivals(dst []Arrival, from, to cell.Time) []Arrival {
	return appendPerSlot(r, dst, from, to)
}

func (r *Regulator) source() Source { return r.inner }

// End implements Source. The regulator itself cannot know when its backlog
// will drain, so it reports unbounded unless both the demand has ended and
// the queues are empty — End is dynamic, and SpanFeed re-reads it at every
// refill so a drained regulator stops being scanned.
func (r *Regulator) End() cell.Time {
	end := r.inner.End()
	if end == cell.None || r.held > 0 || r.walked < end {
		return cell.None
	}
	if r.last+1 > end {
		return r.last + 1
	}
	return end
}

// Backlog reports the number of cells currently held in shaping queues.
func (r *Regulator) Backlog() int { return r.held }
