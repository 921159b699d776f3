package traffic

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ppsim/internal/cell"
)

func TestValidatorSingleCellIsBurstless(t *testing.T) {
	v := NewValidator(4)
	if err := v.Observe(0, []Arrival{{In: 0, Out: 1}}); err != nil {
		t.Fatal(err)
	}
	if v.Burstiness() != 0 {
		t.Errorf("single cell burstiness = %d, want 0", v.Burstiness())
	}
}

func TestValidatorRateTrafficIsBurstless(t *testing.T) {
	// One cell per slot to the same output from rotating inputs: rate
	// exactly R with no burst (the Theorem 6 ending pattern).
	v := NewValidator(4)
	for s := cell.Time(0); s < 20; s++ {
		if err := v.Observe(s, []Arrival{{In: cell.Port(s % 4), Out: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if v.Burstiness() != 0 {
		t.Errorf("rate-R traffic burstiness = %d, want 0", v.Burstiness())
	}
}

func TestValidatorBurstMeasured(t *testing.T) {
	// Three cells for one output in one slot: windows of length 1 contain
	// 3 cells, so B = 2.
	v := NewValidator(4)
	err := v.Observe(0, []Arrival{{In: 0, Out: 2}, {In: 1, Out: 2}, {In: 3, Out: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Burstiness() != 2 {
		t.Errorf("burstiness = %d, want 2", v.Burstiness())
	}
	if v.maxOut != 2 || v.maxIn != 0 {
		t.Errorf("in/out = %d/%d, want 0/2", v.maxIn, v.maxOut)
	}
}

func TestValidatorSilentGapDrains(t *testing.T) {
	v := NewValidator(2)
	v.Observe(0, []Arrival{{In: 0, Out: 0}, {In: 1, Out: 0}}) // B=1 so far
	// Long silence: queue drains fully.
	v.Observe(100, []Arrival{{In: 0, Out: 0}, {In: 1, Out: 0}})
	if v.Burstiness() != 1 {
		t.Errorf("burstiness = %d, want 1 (bursts separated by silence)", v.Burstiness())
	}
}

func TestValidatorBackToBackBurstsAccumulate(t *testing.T) {
	v := NewValidator(4)
	// Two consecutive slots with 3 cells each to output 0: window tau=2
	// holds 6 cells, excess 4.
	for s := cell.Time(0); s < 2; s++ {
		v.Observe(s, []Arrival{{In: 0, Out: 0}, {In: 1, Out: 0}, {In: 2, Out: 0}})
	}
	if v.Burstiness() != 4 {
		t.Errorf("burstiness = %d, want 4", v.Burstiness())
	}
}

func TestValidatorRejectsNonmonotoneSlots(t *testing.T) {
	v := NewValidator(2)
	v.Observe(5, nil)
	if err := v.Observe(5, nil); err == nil {
		t.Error("repeated slot must error")
	}
	if err := v.Observe(3, nil); err == nil {
		t.Error("backwards slot must error")
	}
}

func TestValidatorRejectsOutOfRange(t *testing.T) {
	v := NewValidator(2)
	if err := v.Observe(0, []Arrival{{In: 5, Out: 0}}); err == nil {
		t.Error("out-of-range input must error")
	}
}

func TestMeasureSource(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < 5; i++ {
		tr.MustAdd(0, cell.Port(i), 0)
	}
	b, err := MeasureSource(5, tr)
	if err != nil {
		t.Fatal(err)
	}
	if b != 4 {
		t.Errorf("measured B = %d, want 4", b)
	}
	if _, err := MeasureSource(2, &Flood{N: 2, Out: 0, Until: cell.None}); err == nil {
		t.Error("unbounded source must error")
	}
}

func TestWindowBurstinessGrowsForFlood(t *testing.T) {
	// Proposition 15's signature: for flooding traffic the window excess
	// grows linearly with the window, so no fixed B can bound it.
	f := &Flood{N: 4, Out: 0, Until: 100}
	var prev int64 = -1
	for _, tau := range []cell.Time{1, 5, 10, 50} {
		got, err := WindowBurstiness(4, f, tau)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(tau)*4 - int64(tau) // N cells/slot for tau slots minus tau*R
		if got != want {
			t.Errorf("tau=%d: excess = %d, want %d", tau, got, want)
		}
		if got <= prev {
			t.Errorf("excess must grow with tau: %d then %d", prev, got)
		}
		prev = got
	}
}

// TestWindowBurstinessRejectsOutOfRange: a trace does not range-check its
// ports, so an arrival outside the switch is an error here, as it is for
// MeasureSource, not an index panic.
func TestWindowBurstinessRejectsOutOfRange(t *testing.T) {
	for _, a := range []Arrival{{In: 0, Out: 5}, {In: 5, Out: 0}, {In: 0, Out: -1}} {
		tr := NewTrace()
		tr.MustAdd(3, a.In, a.Out)
		_, err := WindowBurstiness(2, tr, 1)
		if err == nil || !strings.Contains(err.Error(), "outside 2x2 switch") {
			t.Errorf("arrival %d->%d: err = %v, want the outside-the-switch error", a.In, a.Out, err)
		}
		if _, merr := MeasureSource(2, tr); merr == nil || err == nil || merr.Error() != err.Error() {
			t.Errorf("arrival %d->%d: WindowBurstiness says %v, MeasureSource %v", a.In, a.Out, err, merr)
		}
	}
}

func TestWindowBurstinessBoundedForLeakyBucket(t *testing.T) {
	// For conformant traffic the excess is bounded by B for every tau.
	tr := NewTrace()
	for s := cell.Time(0); s < 50; s++ {
		tr.MustAdd(s, cell.Port(s%3), 0) // rate R, B=0
	}
	for _, tau := range []cell.Time{1, 7, 25, 50} {
		got, err := WindowBurstiness(3, tr, tau)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Errorf("tau=%d: excess = %d, want 0", tau, got)
		}
	}
	if _, err := WindowBurstiness(3, tr, 0); err == nil {
		t.Error("tau=0 must error")
	}
}

// denseWindowBurstiness is WindowBurstiness's oracle, the historical dense
// scan: an n × End() table of per-slot counts, and every window ending at
// every slot of every output.
func denseWindowBurstiness(n int, src Source, tau cell.Time) (int64, error) {
	end := src.End()
	if end == cell.None {
		return 0, fmt.Errorf("traffic: cannot measure an unbounded source")
	}
	if tau <= 0 {
		return 0, fmt.Errorf("traffic: window must be positive, got %d", tau)
	}
	counts := make([][]int64, n)
	for j := range counts {
		counts[j] = make([]int64, end)
	}
	for _, a := range appendSpan(src, nil, 0, end) {
		if err := inSwitch(n, a); err != nil {
			return 0, err
		}
		counts[a.Out][a.T]++
	}
	var worst int64
	for j := 0; j < n; j++ {
		var window int64
		for t := cell.Time(0); t < end; t++ {
			window += counts[j][t]
			if t >= tau {
				window -= counts[j][t-tau]
			}
			if excess := window - int64(min(tau, t+1)); excess > worst {
				worst = excess
			}
		}
	}
	return worst, nil
}

// Property: the arrival-slot scan equals the dense scan of every window on
// traces of up to 64 cells over 200 slots, several to a slot, at every
// window length up to past the horizon.
func TestWindowBurstinessMatchesDenseScan(t *testing.T) {
	prop := func(cells []uint16, tauRaw uint8) bool {
		const n = 4
		tr := NewTrace()
		for i, c := range cells {
			if i == 64 {
				break
			}
			tr.Add(cell.Time(c%200), cell.Port(c/200%n), cell.Port(c/800%n)) // collisions skipped
		}
		tau := 1 + cell.Time(tauRaw)
		got, err := WindowBurstiness(n, tr, tau)
		want, werr := denseWindowBurstiness(n, tr, tau)
		if got != want || (err == nil) != (werr == nil) {
			t.Logf("tau %d: scan %d (%v), dense %d (%v)", tau, got, err, want, werr)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRegulatorShapesFlood(t *testing.T) {
	const n = 4
	f := &Flood{N: n, Out: 0, Until: 10} // 40 cells to output 0
	reg := NewRegulator(n, 2, f)
	v := NewValidator(n)
	released := 0
	var buf []Arrival
	for s := cell.Time(0); s < 200 && released < 40; s++ {
		buf = reg.Arrivals(s, nil)
		if err := v.Observe(s, buf); err != nil {
			t.Fatal(err)
		}
		released += len(buf)
	}
	if released != 40 {
		t.Fatalf("regulator lost cells: released %d of 40", released)
	}
	if v.Burstiness() > 2 {
		t.Errorf("regulated burstiness = %d, want <= 2", v.Burstiness())
	}
	if reg.Backlog() != 0 {
		t.Errorf("backlog = %d after drain", reg.Backlog())
	}
	if reg.End() == cell.None {
		t.Error("drained regulator over bounded source should report an end")
	}
}

func TestRegulatorPreservesFlowOrder(t *testing.T) {
	tr := NewTrace()
	// Input 0 sends to outputs 0,1,0,1,... while output 0 is congested by
	// other inputs; head-of-line blocking must keep input 0's cells in order.
	for s := cell.Time(0); s < 8; s++ {
		tr.MustAdd(s, 0, cell.Port(s%2))
		tr.MustAdd(s, 1, 0)
		tr.MustAdd(s, 2, 0)
	}
	reg := NewRegulator(3, 0, tr)
	var order []cell.Port
	var buf []Arrival
	for s := cell.Time(0); s < 100; s++ {
		buf = reg.Arrivals(s, buf[:0])
		for _, a := range buf {
			if a.In == 0 {
				order = append(order, a.Out)
			}
		}
		if reg.Backlog() == 0 && s > 8 {
			break
		}
	}
	if len(order) != 8 {
		t.Fatalf("input 0 released %d cells, want 8", len(order))
	}
	for i, out := range order {
		if out != cell.Port(i%2) {
			t.Fatalf("flow order broken at %d: %v", i, order)
		}
	}
}

// Property: the regulator's output always validates as (R=1, B) for random
// bursty demand.
func TestRegulatorAlwaysConformant(t *testing.T) {
	prop := func(seed int64, bRaw uint8) bool {
		b := int64(bRaw % 8)
		const n = 4
		demand, err := NewOnOff(n, 6, 2, 60, seed)
		if err != nil {
			return false
		}
		reg := NewRegulator(n, b, demand)
		v := NewValidator(n)
		var buf []Arrival
		for s := cell.Time(0); s < 600; s++ {
			buf = reg.Arrivals(s, nil)
			if err := v.Observe(s, buf); err != nil {
				return false
			}
			if s > 60 && reg.Backlog() == 0 {
				break
			}
		}
		return v.Burstiness() <= b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRegulatorSteadyStateAllocFree(t *testing.T) {
	const n = 32
	reg := NewRegulator(n, 4, NewBernoulli(n, 0.75, cell.None, 1))
	var dst []Arrival
	slot := cell.Time(0)
	for ; slot < 10_000; slot++ {
		dst = reg.Arrivals(slot, dst[:0])
	}
	allocs := testing.AllocsPerRun(1000, func() {
		dst = reg.Arrivals(slot, dst[:0])
		slot++
	})
	if allocs != 0 {
		t.Errorf("Regulator.Arrivals allocates %.2f times per slot in steady state, want 0", allocs)
	}
}

// sliceRegulator is a regulator over per-input slice FIFOs, the plainest
// form of the shaping queues, kept as the reference the node-slab
// Regulator's released stream must match cell for cell.
type sliceRegulator struct {
	n      int
	inner  Source
	b      int64
	tokens []int64
	queues [][]Arrival
	last   cell.Time
	walked cell.Time
}

func newSliceRegulator(n int, b int64, src Source) *sliceRegulator {
	tok := make([]int64, n)
	for j := range tok {
		tok[j] = b + 1
	}
	return &sliceRegulator{n: n, inner: src, b: b, tokens: tok, queues: make([][]Arrival, n), last: -1}
}

func (r *sliceRegulator) Arrivals(t cell.Time, dst []Arrival) []Arrival {
	gap := int64(t - r.last)
	if r.last < 0 {
		gap = 0
	}
	for j := 0; j < r.n; j++ {
		r.tokens[j] += gap
		if r.tokens[j] > r.b+1 {
			r.tokens[j] = r.b + 1
		}
	}
	r.last = t
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
	for i := 0; i < r.n; i++ {
		q := r.queues[i]
		if len(q) == 0 {
			continue
		}
		a := q[0]
		if r.tokens[a.Out] <= 0 {
			continue
		}
		r.tokens[a.Out]--
		r.queues[i] = q[1:]
		dst = append(dst, a)
	}
	return dst
}

func (r *sliceRegulator) End() cell.Time {
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

func (r *sliceRegulator) Backlog() int {
	n := 0
	for _, q := range r.queues {
		n += len(q)
	}
	return n
}

// Property: the slab regulator releases exactly the slice reference's
// stream, and reports the same End and Backlog, at every slot — including
// skipped slots, which exercise the multi-slot pull and token refill.
func TestRegulatorMatchesSliceReference(t *testing.T) {
	prop := func(nRaw, bRaw, loadRaw uint8, seed int64) bool {
		n := 1 + int(nRaw%24)
		b := int64(bRaw % 6)
		load := float64(loadRaw) / 255
		const until = 300
		got := NewRegulator(n, b, NewBernoulli(n, load, until, seed))
		want := newSliceRegulator(n, b, NewBernoulli(n, load, until, seed))
		var g, w []Arrival
		for s := cell.Time(0); s < 20*until; s += 1 + s%3/2 {
			g, w = got.Arrivals(s, g[:0]), want.Arrivals(s, w[:0])
			if !slices.Equal(g, w) || got.End() != want.End() || got.Backlog() != want.Backlog() {
				t.Logf("n=%d b=%d load=%.2f seed=%d slot %d: arrivals %v / %v, End %d / %d, Backlog %d / %d",
					n, b, load, seed, s, g, w, got.End(), want.End(), got.Backlog(), want.Backlog())
				return false
			}
			if want.End() != cell.None && s > want.End() {
				return true
			}
		}
		return want.End() != cell.None
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: MeasureSource of a Trace equals the brute-force window scan
// maximum over all window lengths.
func TestValidatorMatchesBruteForce(t *testing.T) {
	prop := func(raw []uint16) bool {
		const n = 4
		tr := NewTrace()
		for k, r := range raw {
			if k > 60 {
				break
			}
			slot := cell.Time(r % 16)
			in := cell.Port(int(r/16) % n)
			out := cell.Port(int(r/64) % n)
			tr.Add(slot, in, out) // collisions ignored
		}
		if tr.End() == 0 {
			return true
		}
		got, err := MeasureSource(n, tr)
		if err != nil {
			return false
		}
		// Brute force over every (port, window) pair.
		end := tr.End()
		var want int64
		var buf []Arrival
		inCount := make([][]int64, n)
		outCount := make([][]int64, n)
		for p := 0; p < n; p++ {
			inCount[p] = make([]int64, end)
			outCount[p] = make([]int64, end)
		}
		for s := cell.Time(0); s < end; s++ {
			buf = tr.Arrivals(s, buf[:0])
			for _, a := range buf {
				inCount[a.In][s]++
				outCount[a.Out][s]++
			}
		}
		for p := 0; p < n; p++ {
			for t1 := cell.Time(0); t1 < end; t1++ {
				var ci, co int64
				for t2 := t1; t2 < end; t2++ {
					ci += inCount[p][t2]
					co += outCount[p][t2]
					tau := int64(t2 - t1 + 1)
					if ex := ci - tau; ex > want {
						want = ex
					}
					if ex := co - tau; ex > want {
						want = ex
					}
				}
			}
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// repeatSource replays one pattern of arrivals, pattern[t mod len], forever.
type repeatSource struct{ pattern [][]Arrival }

func (s repeatSource) Arrivals(t cell.Time, dst []Arrival) []Arrival {
	return append(dst, s.pattern[int(t)%len(s.pattern)]...)
}

func (s repeatSource) End() cell.Time { return cell.None }

// Property: on random bursty demand — up to 160 cells in a 32-slot window,
// many inputs converging on one output, so queues grow deep and drain at
// different rates — the slab regulator releases exactly the per-input FIFO
// reference's stream, across skipped slots too. The demand repeats after a
// silence long enough to drain every queue (each slot with a backlog
// releases at least one cell, because every output regains a token per
// slot), so after one period the slab has reached its peak and later
// periods reuse freed nodes: the regulator allocates nothing.
func TestRegulatorSlabMatchesFIFOReference(t *testing.T) {
	prop := func(nRaw, bRaw uint8, seed int64) bool {
		n := 1 + int(nRaw%8)
		b := int64(bRaw % 4)
		const window, maxCells = 32, 160
		rng := rand.New(rand.NewSource(seed))
		pattern := make([][]Arrival, window+maxCells+8)
		used := map[[2]int]bool{}
		for k := rng.Intn(maxCells + 1); k > 0; k-- {
			// Outputs skew low, so many inputs converge on output 0.
			slot, in, out := rng.Intn(window), rng.Intn(n), rng.Intn(1+rng.Intn(n))
			if used[[2]int{slot, in}] {
				continue // one arrival per input per slot
			}
			used[[2]int{slot, in}] = true
			pattern[slot] = append(pattern[slot], Arrival{In: cell.Port(in), Out: cell.Port(out)})
		}
		period := cell.Time(len(pattern))
		src := repeatSource{pattern}

		got, want := NewRegulator(n, b, src), newSliceRegulator(n, b, src)
		var g, w []Arrival
		for s := cell.Time(0); s < 2*period; s += 1 + s%3/2 {
			g, w = got.Arrivals(s, g[:0]), want.Arrivals(s, w[:0])
			if !slices.Equal(g, w) || got.Backlog() != want.Backlog() {
				t.Logf("n=%d b=%d slot %d: arrivals %v / %v, Backlog %d / %d", n, b, s, g, w, got.Backlog(), want.Backlog())
				return false
			}
		}

		reg := NewRegulator(n, b, src)
		dst := make([]Arrival, 0, n)
		slot := cell.Time(0)
		periods := func(count cell.Time) {
			for end := slot + count*period; slot < end; slot++ {
				dst = reg.Arrivals(slot, dst[:0])
			}
		}
		periods(1)
		if reg.Backlog() != 0 {
			t.Logf("n=%d b=%d: backlog %d after a period", n, b, reg.Backlog())
			return false
		}
		// AllocsPerRun rounds the count per call down: one measured call of
		// eight periods sees a slab that grows by a node a period.
		if allocs := testing.AllocsPerRun(1, func() { periods(8) }); allocs != 0 {
			t.Logf("n=%d b=%d: %.0f allocations in eight periods after the first", n, b, allocs)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
