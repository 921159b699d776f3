package traffic

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ppsim/internal/cell"
)

func collect(t *testing.T, src Source, upto cell.Time) map[cell.Time][]Arrival {
	t.Helper()
	out := make(map[cell.Time][]Arrival)
	var buf []Arrival
	for slot := cell.Time(0); slot < upto; slot++ {
		buf = src.Arrivals(slot, nil)
		if len(buf) > 0 {
			out[slot] = buf
		}
	}
	return out
}

func TestTraceAddAndReplay(t *testing.T) {
	tr := NewTrace()
	if err := tr.Add(3, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(3, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(3, 1, 0); err == nil {
		t.Error("duplicate input in a slot must error")
	}
	if err := tr.Add(-1, 0, 0); err == nil {
		t.Error("negative slot must error")
	}
	if tr.End() != 4 {
		t.Errorf("End = %d, want 4", tr.End())
	}
	if tr.Count() != 2 {
		t.Errorf("Count = %d, want 2", tr.Count())
	}
	got := tr.Arrivals(3, nil)
	if len(got) != 2 || got[0].In != 0 || got[1].In != 1 {
		t.Errorf("Arrivals(3) = %v (want sorted by input)", got)
	}
	if len(tr.Arrivals(2, nil)) != 0 {
		t.Error("silent slot should be empty")
	}
}

func TestTraceShiftAppend(t *testing.T) {
	a := NewTrace()
	a.MustAdd(0, 0, 1)
	b := NewTrace()
	if err := b.Append(a, 5); err != nil {
		t.Fatal(err)
	}
	if b.End() != 6 || len(b.Arrivals(5, nil)) != 1 {
		t.Error("Append with offset misplaced arrivals")
	}
	if err := a.Append(b, 0); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 2 {
		t.Errorf("Append: Count = %d", a.Count())
	}
	c := NewTrace()
	c.MustAdd(0, 0, 3)
	if err := a.Append(c, 0); err == nil {
		t.Error("Append with collision must error")
	}
}

// TestTraceConcurrentReaders shares one trace — built out of slot order and
// out of input order, so nothing about it is sorted by accident — between
// goroutines that read it both ways, as RunSeeds/RunSweep points do. Reads
// must be pure: the race job runs this under the detector.
func TestTraceConcurrentReaders(t *testing.T) {
	const slots, ports = 64, 4
	tr := NewTrace()
	var want []Arrival
	for s := cell.Time(slots - 1); s >= 0; s-- {
		for in := cell.Port(ports - 1); in >= 0; in-- {
			tr.MustAdd(3*s, in, (in+cell.Port(s))%ports)
		}
	}
	for s := cell.Time(0); s < slots; s++ {
		for in := cell.Port(0); in < ports; in++ {
			want = append(want, Arrival{In: in, Out: (in + cell.Port(s)) % ports, T: 3 * s})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := tr.AppendArrivals(nil, 0, tr.End()); !slices.Equal(got, want) {
				t.Errorf("AppendArrivals over a shared trace diverged from slot/input order")
			}
			var perSlot []Arrival
			for s := cell.Time(0); s < tr.End(); s++ {
				n := len(perSlot)
				perSlot = tr.Arrivals(s, perSlot)
				stamp(perSlot[n:], s)
			}
			if !slices.Equal(perSlot, want) {
				t.Errorf("Arrivals over a shared trace diverged from slot/input order")
			}
		}()
	}
	wg.Wait()
}

func TestConcatSequentialComposition(t *testing.T) {
	a := NewTrace()
	a.MustAdd(0, 0, 0)
	a.MustAdd(1, 0, 0)
	b := NewTrace()
	b.MustAdd(0, 1, 0)
	cc, err := NewConcat(Part{Source: a, GapAfter: 3}, Part{Source: b})
	if err != nil {
		t.Fatal(err)
	}
	// a occupies slots [0,2), then 3 idle slots, so b starts at 5.
	if got := cc.Arrivals(5, nil); len(got) != 1 || got[0].In != 1 {
		t.Errorf("Arrivals(5) = %v", got)
	}
	if cc.End() != 6 {
		t.Errorf("End = %d, want 6", cc.End())
	}
}

func TestConcatRejectsUnbounded(t *testing.T) {
	if _, err := NewConcat(Part{Source: &Flood{N: 2, Out: 0, Until: cell.None}}); err == nil {
		t.Error("unbounded part must be rejected")
	}
}

func TestCBR(t *testing.T) {
	c := &CBR{
		Flows:  []cell.Flow{{In: 0, Out: 1}, {In: 1, Out: 1}},
		Period: 4,
		Phase:  []cell.Time{0, 2},
		Until:  10,
	}
	got := collect(t, c, 12)
	if len(got[0]) != 1 || got[0][0].In != 0 {
		t.Errorf("slot 0: %v", got[0])
	}
	if len(got[2]) != 1 || got[2][0].In != 1 {
		t.Errorf("slot 2: %v", got[2])
	}
	if len(got[4]) != 1 || len(got[6]) != 1 || len(got[8]) != 1 {
		t.Error("period-4 emissions missing")
	}
	if len(got[10]) != 0 {
		t.Error("emissions after Until")
	}
}

func TestBernoulliDeterminismAndLoad(t *testing.T) {
	const n, slots = 8, 4000
	a := NewBernoulli(n, 0.5, slots, 42)
	b := NewBernoulli(n, 0.5, slots, 42)
	total := 0
	var buf1, buf2 []Arrival
	for s := cell.Time(0); s < slots; s++ {
		buf1 = a.Arrivals(s, buf1[:0])
		buf2 = b.Arrivals(s, buf2[:0])
		if len(buf1) != len(buf2) {
			t.Fatalf("same seed diverged at slot %d", s)
		}
		for i := range buf1 {
			if buf1[i] != buf2[i] {
				t.Fatalf("same seed diverged at slot %d", s)
			}
		}
		seen := map[cell.Port]bool{}
		for _, a := range buf1 {
			if seen[a.In] {
				t.Fatalf("two arrivals on one input in slot %d", s)
			}
			seen[a.In] = true
			if a.Out < 0 || int(a.Out) >= n {
				t.Fatalf("destination out of range: %v", a)
			}
		}
		total += len(buf1)
	}
	mean := float64(total) / float64(slots*n)
	if mean < 0.45 || mean > 0.55 {
		t.Errorf("empirical load %f too far from 0.5", mean)
	}
}

// TestBernoulliWeightedErrors: a load or weight table the source cannot
// draw from is an error. NaN and ±Inf weights are among them: a `< 0` check
// lets them through, the CDF row turns NaN and every cell goes to output 0.
func TestBernoulliWeightedErrors(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name    string
		n       int
		load    float64
		weights []float64
	}{
		{"n=0", 0, 0.5, nil},
		{"load > 1", 2, 1.5, []float64{1, 1, 1, 1}},
		{"load < 0", 2, -0.1, []float64{1, 1, 1, 1}},
		{"load NaN", 2, nan, []float64{1, 1, 1, 1}},
		{"bad weight length", 2, 0.5, make([]float64, 3)},
		{"zero row", 2, 0.5, []float64{0, 0, 1, 1}},
		{"negative weight", 2, 0.5, []float64{-1, 2, 1, 1}},
		{"NaN weight", 2, 0.5, []float64{1, nan, 1, 1}},
		{"+Inf weight", 2, 0.5, []float64{1, 1, inf, 1}},
		{"-Inf weight", 2, 0.5, []float64{1, 1, 1, -inf}},
		{"row sum overflows", 2, 0.5, []float64{1, 1, math.MaxFloat64, math.MaxFloat64}},
	} {
		if _, err := NewBernoulliWeighted(tc.n, tc.load, tc.weights, 10, 1); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	w := []float64{1, 3, 0, 2}
	if _, err := NewBernoulliWeighted(2, 0.5, w, 10, 1); err != nil || !slices.Equal(w, []float64{1, 3, 0, 2}) {
		t.Errorf("valid table: err %v, caller's weights now %v", err, w)
	}
}

// TestGeneratorParameterErrors: the other constructors reject what their
// range checks mean to, NaN included, and NewBernoulli panics on a load it
// cannot draw with.
func TestGeneratorParameterErrors(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"onoff meanOn NaN", second(NewOnOff(2, nan, 5, 10, 1))},
		{"onoff meanOff NaN", second(NewOnOff(2, 5, nan, 10, 1))},
		{"onoff meanOn -Inf", second(NewOnOff(2, math.Inf(-1), 5, 10, 1))},
		{"hotspot load NaN", second(NewHotspot(4, nan, 0.5, 0, 10, 1))},
		{"hotspot hotFrac NaN", second(NewHotspot(4, 0.5, nan, 0, 10, 1))},
		{"hotspot hot = n", second(NewHotspot(4, 0.5, 0.5, 4, 10, 1))},
		{"hotspot hot < 0", second(NewHotspot(4, 0.5, 0.5, -1, 10, 1))},
	} {
		if tc.err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// An infinite OFF dwell is the load-0 limit: the input never turns on.
	o, err := NewOnOff(2, 8, math.Inf(1), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, o, 100); len(got) != 0 {
		t.Errorf("meanOff +Inf emitted in %d slots", len(got))
	}
	for _, load := range []float64{1.5, -0.1, nan} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBernoulli(load %g) did not panic", load)
				}
			}()
			NewBernoulli(4, load, 10, 1)
		}()
	}
}

// second returns a constructor's error.
func second[T any](_ T, err error) error { return err }

// TestUniformBernoulliSharesOneRow: the one CDF row NewBernoulli shares
// among all inputs draws exactly the stream of n all-ones weight rows.
func TestUniformBernoulliSharesOneRow(t *testing.T) {
	for _, n := range []int{1, 2, 7, 128} {
		ones := make([]float64, n*n)
		for i := range ones {
			ones[i] = 1
		}
		weighted, err := NewBernoulliWeighted(n, 0.3, ones, cell.None, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		uniform := NewBernoulli(n, 0.3, cell.None, int64(n))
		if len(uniform.dist) != n {
			t.Errorf("n=%d: uniform CDF holds %d floats, want one row of %d", n, len(uniform.dist), n)
		}
		var a, b []Arrival
		for s := cell.Time(0); s < 10000; s++ {
			a, b = uniform.Arrivals(s, a[:0]), weighted.Arrivals(s, b[:0])
			if !slices.Equal(a, b) {
				t.Fatalf("n=%d slot %d: uniform %v, all-ones weights %v", n, s, a, b)
			}
		}
	}
}

// TestNewBernoulliAllocatesOneRow: a uniform source costs its RNG and one
// row, not the n*n weight table and n*n CDF it once built (about 260 KiB
// at n = 128).
func TestNewBernoulliAllocatesOneRow(t *testing.T) {
	const runs = 16
	srcs := make([]*Bernoulli, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range srcs {
		srcs[i] = NewBernoulli(128, 0.5, cell.None, int64(i))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 8<<10 {
		t.Errorf("NewBernoulli(128, ...) allocates %d B, want <= 8 KiB", per)
	}
}

// TestBernoulliDestMatchesScan holds the binary search that draws a
// destination against the linear scan it replaced, over the row shapes the
// constructors build: random tables, zero-weight columns (repeated CDF
// values), one output, hotspot rows and the shared uniform row. Each row is
// probed at its own CDF values and their neighbours, where the two could
// disagree about ties, and each source's stream is replayed with the scan.
func TestBernoulliDestMatchesScan(t *testing.T) {
	scan := func(row []float64, u float64) cell.Port {
		j := 0
		for j < len(row)-1 && u > row[j] {
			j++
		}
		return cell.Port(j)
	}
	// Source k is seeded k, so its scan replay can redraw its stream.
	rng := rand.New(rand.NewSource(5))
	random := func(n int, zeroCols bool) func(int64) *Bernoulli {
		w := make([]float64, n*n)
		for i := range w {
			if !zeroCols || rng.Intn(3) > 0 {
				w[i] = rng.Float64()
			}
		}
		for i := 0; i < n; i++ {
			w[i*n+rng.Intn(n)] += 0.1 // no zero row
		}
		return func(seed int64) *Bernoulli {
			b, err := NewBernoulliWeighted(n, 0.7, w, cell.None, seed)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	hot := func(n int, frac float64, out cell.Port) func(int64) *Bernoulli {
		return func(seed int64) *Bernoulli {
			h, err := NewHotspot(n, 0.7, frac, out, cell.None, seed)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
	}
	uniform := func(n int) func(int64) *Bernoulli {
		return func(seed int64) *Bernoulli { return NewBernoulli(n, 0.7, cell.None, seed) }
	}
	for k, mk := range []func(int64) *Bernoulli{
		uniform(1), uniform(9), hot(8, 0.95, 0), hot(8, 0.5, 7), hot(5, 1, 2),
		random(1, false), random(2, true), random(16, false), random(16, true), random(33, true),
	} {
		b := mk(int64(k))
		for i := 0; i < b.n; i++ {
			row := b.dist[i*b.stride:][:b.n]
			probes := []float64{0, 1, rng.Float64()}
			for _, c := range row {
				probes = append(probes, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
			}
			for _, u := range probes {
				if got, want := b.dest(i, u), scan(row, u); got != want {
					t.Fatalf("source %d input %d u=%v: search %d, scan %d (row %v)", k, i, u, got, want, row)
				}
			}
		}
		twin := rand.New(rand.NewSource(int64(k)))
		var got []Arrival
		for s := cell.Time(0); s < 2000; s++ {
			got = b.Arrivals(s, got[:0])
			var want []Arrival
			for i := 0; i < b.n; i++ {
				if twin.Float64() < b.load {
					want = append(want, Arrival{In: cell.Port(i), Out: scan(b.dist[i*b.stride:][:b.n], twin.Float64())})
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("source %d slot %d: %v, scan replay %v", k, s, got, want)
			}
		}
	}
}

func TestOnOffBurstsShareDestination(t *testing.T) {
	o, err := NewOnOff(4, 10, 10, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Within one sweep an input in ON state emits toward a single target;
	// verify per-slot uniqueness and that some traffic is produced.
	total := 0
	var buf []Arrival
	for s := cell.Time(0); s < 2000; s++ {
		buf = o.Arrivals(s, buf[:0])
		seen := map[cell.Port]bool{}
		for _, a := range buf {
			if seen[a.In] {
				t.Fatalf("duplicate input at slot %d", s)
			}
			seen[a.In] = true
		}
		total += len(buf)
	}
	if total == 0 {
		t.Error("on/off source emitted nothing in 2000 slots")
	}
	if _, err := NewOnOff(0, 5, 5, 10, 1); err == nil {
		t.Error("n=0 must error")
	}
	if _, err := NewOnOff(2, 0.5, 5, 10, 1); err == nil {
		t.Error("dwell < 1 must error")
	}
}

func TestPermutation(t *testing.T) {
	p, err := NewPermutation([]cell.Port{2, 0, 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Arrivals(0, nil)
	if len(got) != 3 || got[0].Out != 2 || got[1].Out != 0 || got[2].Out != 1 {
		t.Errorf("Arrivals = %v", got)
	}
	if len(p.Arrivals(5, nil)) != 0 {
		t.Error("emissions after Until")
	}
	if _, err := NewPermutation([]cell.Port{0, 0}, 5); err == nil {
		t.Error("non-permutation must error")
	}
}

func TestFlood(t *testing.T) {
	f := &Flood{N: 3, Out: 2, Until: 2}
	got := f.Arrivals(0, nil)
	if len(got) != 3 {
		t.Fatalf("Flood arrivals = %v", got)
	}
	for _, a := range got {
		if a.Out != 2 {
			t.Errorf("flood to wrong output: %v", a)
		}
	}
	if len(f.Arrivals(2, nil)) != 0 {
		t.Error("emissions after Until")
	}
}

func TestHotspotConcentration(t *testing.T) {
	const n, slots = 8, 5000
	h, err := NewHotspot(n, 0.5, 0.9, 3, slots, 11)
	if err != nil {
		t.Fatal(err)
	}
	hot, total := 0, 0
	var buf []Arrival
	for s := cell.Time(0); s < slots; s++ {
		buf = h.Arrivals(s, buf[:0])
		for _, a := range buf {
			total++
			if a.Out == 3 {
				hot++
			}
		}
	}
	frac := float64(hot) / float64(total)
	// 0.9 + 0.1/8 expected to the hot output.
	if frac < 0.85 || frac > 0.97 {
		t.Errorf("hot fraction %f, want ~0.91", frac)
	}
	if _, err := NewHotspot(4, 0.5, 1.5, 0, 10, 1); err == nil {
		t.Error("hotFrac > 1 must error")
	}
}
