package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"ppsim/internal/cell"
)

// CBR emits one cell on each configured flow every Period slots, starting at
// the flow's Phase. With Period >= number of flows sharing a port it is
// (1, 0) leaky-bucket conformant.
type CBR struct {
	Flows  []cell.Flow
	Period cell.Time
	Phase  []cell.Time // per-flow phase; nil means all zero
	Until  cell.Time   // emit arrivals for slots < Until; None = unbounded
}

// Arrivals implements Source.
func (c *CBR) Arrivals(t cell.Time, dst []Arrival) []Arrival {
	if c.Until != cell.None && t >= c.Until {
		return dst
	}
	for i, f := range c.Flows {
		var ph cell.Time
		if c.Phase != nil {
			ph = c.Phase[i]
		}
		if t >= ph && (t-ph)%c.Period == 0 {
			dst = append(dst, Arrival{In: f.In, Out: f.Out})
		}
	}
	return dst
}

// End implements Source.
func (c *CBR) End() cell.Time { return c.Until }

// nextEmission returns the earliest slot >= from at which some flow emits,
// or cell.None past Until.
func (c *CBR) nextEmission(from cell.Time) cell.Time {
	best := cell.None
	for i := range c.Flows {
		var ph cell.Time
		if c.Phase != nil {
			ph = c.Phase[i]
		}
		t := ph
		if from > ph {
			t = ph + (from-ph+c.Period-1)/c.Period*c.Period
		}
		if best == cell.None || t < best {
			best = t
		}
	}
	if c.Until != cell.None && best >= c.Until {
		return cell.None
	}
	return best
}

// AppendArrivals implements BatchSource in closed form: the walk visits only
// emission slots, so a long period costs nothing per silent slot.
func (c *CBR) AppendArrivals(dst []Arrival, from, to cell.Time) []Arrival {
	for t := c.nextEmission(from); t != cell.None && t < to; t = c.nextEmission(t + 1) {
		start := len(dst)
		dst = c.Arrivals(t, dst)
		stamp(dst[start:], t)
	}
	return dst
}

// stamp sets the slot of the arrivals a BatchSource just appended for slot t.
func stamp(as []Arrival, t cell.Time) {
	for i := range as {
		as[i].T = t
	}
}

// appendPerSlot is the span loop of every source without a closed form:
// replay Arrivals for each slot of [from, to) into dst and stamp each
// appended entry's slot. Stateful sources draw exactly what a stepped replay
// draws, in the same order, because it is the same calls.
func appendPerSlot(src Source, dst []Arrival, from, to cell.Time) []Arrival {
	if end := src.End(); end != cell.None && to > end {
		to = end
	}
	for t := from; t < to; t++ {
		start := len(dst)
		dst = src.Arrivals(t, dst)
		stamp(dst[start:], t)
	}
	return dst
}

// slotGuard enforces the stateful generators' strictly-increasing-slot
// contract: their stream is a function of how many slots were generated, so
// a replayed slot would silently fork the RNG (or schedule) stream. Skipping
// slots is fine, going back panics. The zero value is ready to use.
type slotGuard struct {
	next cell.Time // first slot not yet generated
}

func (g *slotGuard) claim(t cell.Time) {
	if t < g.next {
		panic("traffic: slots must be queried in increasing order")
	}
	g.next = t + 1
}

// Bernoulli is independent identically distributed traffic: each slot, each
// input receives a cell with probability Load, destined to an output drawn
// from the destination distribution. It models the admissible random traffic
// used for average-case contrast experiments (E13).
type Bernoulli struct {
	n      int
	load   float64
	dist   []float64 // CDF rows over outputs; input i's row starts at i*stride
	stride int       // 0: every input shares one row
	rng    *rand.Rand
	until  cell.Time
	guard  slotGuard
}

// NewBernoulli returns iid traffic on an n x n switch at the given per-input
// load with uniformly distributed destinations; every input shares one CDF
// row. It panics if n <= 0 or load is outside [0, 1].
func NewBernoulli(n int, load float64, until cell.Time, seed int64) *Bernoulli {
	row := make([]float64, max(n, 0))
	for j := range row {
		row[j] = 1
	}
	b, err := newBernoulli(n, load, row, 0, until, seed)
	if err != nil {
		panic(err)
	}
	return b
}

// NewBernoulliWeighted returns iid traffic where input i sends to output j
// with probability proportional to weights[i*n+j]. It returns an error if
// load is outside [0, 1], a weight is negative or not finite, or a row of
// weights sums to zero.
func NewBernoulliWeighted(n int, load float64, weights []float64, until cell.Time, seed int64) (*Bernoulli, error) {
	if n > 0 && len(weights) != n*n {
		return nil, fmt.Errorf("traffic: weights length %d, want %d", len(weights), n*n)
	}
	return newBernoulli(n, load, slices.Clone(weights), n, until, seed)
}

// newBernoulli checks n and load and turns w, whose rows of n weights it
// takes over, into CDF rows in place. Input i draws from the row at
// i*stride, so stride 0 gives every input w's single row.
func newBernoulli(n int, load float64, w []float64, stride int, until cell.Time, seed int64) (*Bernoulli, error) {
	if n <= 0 {
		return nil, fmt.Errorf("traffic: Bernoulli needs n > 0, got %d", n)
	}
	if !(load >= 0 && load <= 1) {
		return nil, fmt.Errorf("traffic: load %g outside [0,1]", load)
	}
	for r := 0; r < len(w); r += n {
		row := w[r : r+n]
		var sum float64
		for j, x := range row {
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("traffic: weight %g at (%d,%d) is negative or not finite", x, r/n, j)
			}
			sum += x
		}
		if sum == 0 || math.IsInf(sum, 0) {
			return nil, fmt.Errorf("traffic: weight row %d sums to %g", r/n, sum)
		}
		acc := 0.0
		for j, x := range row {
			acc += x / sum
			row[j] = acc
		}
		row[n-1] = 1 // guard against rounding
	}
	return &Bernoulli{
		n: n, load: load, dist: w, stride: stride,
		rng:   rand.New(rand.NewSource(seed)),
		until: until,
	}, nil
}

// Arrivals implements Source. Successive calls must be made with strictly
// increasing t for the stream to be reproducible.
func (b *Bernoulli) Arrivals(t cell.Time, dst []Arrival) []Arrival {
	b.guard.claim(t)
	if b.until != cell.None && t >= b.until {
		return dst
	}
	for i := 0; i < b.n; i++ {
		if b.rng.Float64() >= b.load {
			continue
		}
		u := b.rng.Float64()
		dst = append(dst, Arrival{In: cell.Port(i), Out: b.dest(i, u)})
	}
	return dst
}

// dest is input i's destination for the uniform draw u: the first output
// whose CDF value reaches u, or the last output if none of the others does.
// The row is non-decreasing and its forced final 1 is never read.
func (b *Bernoulli) dest(i int, u float64) cell.Port {
	return cell.Port(sort.SearchFloat64s(b.dist[i*b.stride:][:b.n-1], u))
}

// End implements Source.
func (b *Bernoulli) End() cell.Time { return b.until }

// AppendArrivals implements BatchSource.
func (b *Bernoulli) AppendArrivals(dst []Arrival, from, to cell.Time) []Arrival {
	return appendPerSlot(b, dst, from, to)
}

// OnOff is bursty two-state traffic: each input alternates between an ON
// state (a cell arrives every slot, all toward the input's current target
// output) and an OFF state (silence). State dwell times are geometric.
type OnOff struct {
	n            int
	pOnToOff     float64
	pOffToOn     float64
	rng          *rand.Rand
	until        cell.Time
	on           []bool
	target       []cell.Port
	retargetOnOn bool
	guard        slotGuard
}

// NewOnOff returns bursty traffic on an n x n switch. meanOn and meanOff are
// the mean dwell times in slots (must be >= 1; +Inf never leaves the state).
// Each ON burst picks a fresh uniform target output.
func NewOnOff(n int, meanOn, meanOff float64, until cell.Time, seed int64) (*OnOff, error) {
	if n <= 0 {
		return nil, fmt.Errorf("traffic: OnOff needs n > 0")
	}
	if !(meanOn >= 1 && meanOff >= 1) {
		return nil, fmt.Errorf("traffic: mean dwell times %g and %g must be >= 1 slot", meanOn, meanOff)
	}
	o := &OnOff{
		n:            n,
		pOnToOff:     1 / meanOn,
		pOffToOn:     1 / meanOff,
		rng:          rand.New(rand.NewSource(seed)),
		until:        until,
		on:           make([]bool, n),
		target:       make([]cell.Port, n),
		retargetOnOn: true,
	}
	return o, nil
}

// Arrivals implements Source: every input's two-state chain advances by one
// slot per call, so slots must be queried in strictly increasing order.
func (o *OnOff) Arrivals(t cell.Time, dst []Arrival) []Arrival {
	o.guard.claim(t)
	if o.until != cell.None && t >= o.until {
		return dst
	}
	for i := 0; i < o.n; i++ {
		if o.on[i] {
			dst = append(dst, Arrival{In: cell.Port(i), Out: o.target[i]})
			if o.rng.Float64() < o.pOnToOff {
				o.on[i] = false
			}
		} else if o.rng.Float64() < o.pOffToOn {
			o.on[i] = true
			if o.retargetOnOn {
				o.target[i] = cell.Port(o.rng.Intn(o.n))
			}
		}
	}
	return dst
}

// End implements Source.
func (o *OnOff) End() cell.Time { return o.until }

// AppendArrivals implements BatchSource.
func (o *OnOff) AppendArrivals(dst []Arrival, from, to cell.Time) []Arrival {
	return appendPerSlot(o, dst, from, to)
}

// Permutation emits, every slot, one cell per input following a fixed
// permutation (input i -> output perm[i]). It is the heaviest admissible
// no-conflict traffic: per-port rate exactly R with zero burstiness.
type Permutation struct {
	Perm  []cell.Port
	Until cell.Time
}

// NewPermutation returns full-rate permutation traffic. It returns an error
// if perm is not a permutation of 0..n-1.
func NewPermutation(perm []cell.Port, until cell.Time) (*Permutation, error) {
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if int(p) < 0 || int(p) >= len(perm) || seen[p] {
			return nil, fmt.Errorf("traffic: %v is not a permutation", perm)
		}
		seen[p] = true
	}
	return &Permutation{Perm: perm, Until: until}, nil
}

// Arrivals implements Source.
func (p *Permutation) Arrivals(t cell.Time, dst []Arrival) []Arrival {
	if p.Until != cell.None && t >= p.Until {
		return dst
	}
	for i, out := range p.Perm {
		dst = append(dst, Arrival{In: cell.Port(i), Out: out})
	}
	return dst
}

// End implements Source.
func (p *Permutation) End() cell.Time { return p.Until }

// AppendArrivals implements BatchSource.
func (p *Permutation) AppendArrivals(dst []Arrival, from, to cell.Time) []Arrival {
	return appendPerSlot(p, dst, from, to)
}

// NewHotspot returns Bernoulli traffic that sends a fraction hotFrac of
// every input's cells to the single hot output and spreads the remainder
// uniformly. Per-output admissibility requires n * load * hotFrac <= 1 for
// the hot output; the constructor does not enforce it so that
// over-subscribed (flooding) scenarios can be built deliberately (Section 5
// of the paper).
func NewHotspot(n int, load, hotFrac float64, hot cell.Port, until cell.Time, seed int64) (*Bernoulli, error) {
	if !(hotFrac >= 0 && hotFrac <= 1) {
		return nil, fmt.Errorf("traffic: hotFrac %g outside [0,1]", hotFrac)
	}
	if hot < 0 || int(hot) >= n {
		return nil, fmt.Errorf("traffic: hot output %d outside [0,%d)", hot, n)
	}
	// Every input has the same weights, so all share one row.
	w := make([]float64, n)
	cold := (1 - hotFrac) / float64(n)
	for j := range w {
		w[j] = cold
	}
	w[hot] += hotFrac
	return newBernoulli(n, load, w, 0, until, seed)
}

// Flood sends, every slot, one cell from every input to the same output —
// rate N*R toward one port. It is deliberately NOT leaky-bucket conformant
// for any fixed B; Section 5 uses it to create congested periods.
type Flood struct {
	N     int
	Out   cell.Port
	Until cell.Time
}

// Arrivals implements Source.
func (f *Flood) Arrivals(t cell.Time, dst []Arrival) []Arrival {
	if f.Until != cell.None && t >= f.Until {
		return dst
	}
	for i := 0; i < f.N; i++ {
		dst = append(dst, Arrival{In: cell.Port(i), Out: f.Out})
	}
	return dst
}

// End implements Source.
func (f *Flood) End() cell.Time { return f.Until }

// AppendArrivals implements BatchSource.
func (f *Flood) AppendArrivals(dst []Arrival, from, to cell.Time) []Arrival {
	return appendPerSlot(f, dst, from, to)
}
