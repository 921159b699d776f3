package traffic

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"ppsim/internal/cell"
)

// twinCase is one row of the generator table: mk returns a fresh,
// identically-configured source per call (seed feeds the randomized ones),
// so a read-ahead walk and a slot-by-slot replay run on independent twins.
type twinCase struct {
	name string
	mk   func(seed int64) Source
}

// batchTwinCases is the one generator table of the package: every bundled
// generator, dense and sparse, bounded and unbounded, each also under
// WithDeadline. TestBatchArrivalsMatchPerSlotTwin drives the rows through
// raw AppendArrivals, the SpanFeed tests and FuzzSpanFeed through the feed.
func batchTwinCases() []twinCase {
	// The configurations are constants, so a constructor error is a bug in
	// the table (and FuzzSpanFeed builds sources where no *testing.T reaches).
	must := func(src Source, err error) Source {
		if err != nil {
			panic(err)
		}
		return src
	}
	mkTrace := func() *Trace {
		tr := NewTrace()
		for _, e := range []struct {
			t       cell.Time
			in, out cell.Port
		}{{0, 0, 1}, {0, 1, 0}, {3, 2, 2}, {17, 0, 3}, {17, 3, 0}, {64, 1, 1}, {65, 2, 0}, {199, 3, 3}} {
			tr.MustAdd(e.t, e.in, e.out)
		}
		return tr
	}
	cbr := func(period cell.Time, phase ...cell.Time) Source {
		return &CBR{
			Flows:  []cell.Flow{{In: 0, Out: 1}, {In: 1, Out: 2}, {In: 2, Out: 0}},
			Period: period,
			Phase:  phase,
			Until:  cell.None,
		}
	}
	base := []twinCase{
		{"cbr", func(int64) Source { return cbr(3, 0, 1, 2) }},
		{"cbr-long-period", func(int64) Source { return cbr(151, 40, 0, 97) }},
		{"permutation", func(int64) Source { return must(NewPermutation([]cell.Port{2, 0, 3, 1}, 90)) }},
		{"flood", func(int64) Source { return &Flood{N: 3, Out: 1, Until: 75} }},
		{"trace", func(int64) Source { return mkTrace() }},
		{"trace-replayed", func(int64) Source {
			// The serialize round-trip: a trace marshalled to its canonical
			// JSON and decoded into a fresh replay source.
			data, err := json.Marshal(mkTrace())
			replay := NewTrace()
			if err == nil {
				err = json.Unmarshal(data, replay)
			}
			return must(replay, err)
		}},
		{"concat", func(int64) Source {
			return must(NewConcat(
				Part{Source: &Flood{N: 2, Out: 0, Until: 5}, GapAfter: 37},
				Part{Source: mkTrace(), GapAfter: 0},
			))
		}},
		{"bernoulli", func(seed int64) Source { return NewBernoulli(8, 0.4, cell.None, seed) }},
		{"bernoulli-sparse", func(seed int64) Source { return NewBernoulli(6, 0.01, cell.None, seed) }},
		{"bernoulli-finite", func(seed int64) Source { return NewBernoulli(8, 0.6, 100, seed) }},
		{"bernoulli-zero-load", func(seed int64) Source { return NewBernoulli(6, 0, cell.None, seed) }},
		{"onoff", func(seed int64) Source { return must(NewOnOff(8, 3, 60, cell.None, seed)) }},
		{"hotspot", func(seed int64) Source { return must(NewHotspot(8, 0.05, 0.6, 2, cell.None, seed)) }},
		{"bvn", func(int64) Source {
			return must(NewBvN([][]float64{
				{0.30, 0.00, 0.10},
				{0.00, 0.25, 0.00},
				{0.05, 0.00, 0.20},
			}, cell.None, 0))
		}},
		{"regulator", func(seed int64) Source { return NewRegulator(8, 4, NewBernoulli(8, 0.9, cell.None, seed)) }},
		// A finite demand: End turns finite only once the backlog drains.
		{"regulator-bernoulli", func(seed int64) Source { return NewRegulator(6, 2, NewBernoulli(6, 0.3, 120, seed)) }},
	}
	cases := base
	for _, tc := range base {
		cases = append(cases, twinCase{"deadline-" + tc.name, func(seed int64) Source { return WithDeadline(tc.mk(seed), 32) }})
	}
	return cases
}

// steppedTwin replays src slot by slot over [0, end) — the reference every
// read-ahead view is checked against — stamping each arrival's slot the way
// AppendArrivals does.
func steppedTwin(src Source, end cell.Time) [][]Arrival {
	want := make([][]Arrival, end)
	for s := cell.Time(0); s < end; s++ {
		want[s] = src.Arrivals(s, nil)
		stamp(want[s], s)
	}
	return want
}

// TestBatchArrivalsMatchPerSlotTwin is the batch/per-slot equivalence
// property: for every bundled generator, AppendArrivals over a random
// partition of the horizon into spans yields exactly the arrivals a
// slot-by-slot twin produces — same cells, same order, same slot stamps.
func TestBatchArrivalsMatchPerSlotTwin(t *testing.T) {
	const horizon = 260
	for _, tc := range batchTwinCases() {
		for trial := int64(0); trial < 4; trial++ {
			rng := rand.New(rand.NewSource(trial*1009 + 17))
			batch, ok := tc.mk(trial).(BatchSource)
			if !ok {
				t.Fatalf("%s: source does not implement BatchSource", tc.name)
			}
			var want []Arrival
			for _, as := range steppedTwin(tc.mk(trial), horizon) {
				want = append(want, as...)
			}
			var got []Arrival
			for from := cell.Time(0); from < horizon; {
				to := min(from+1+cell.Time(rng.Intn(9)), horizon)
				got = batch.AppendArrivals(got, from, to)
				from = to
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: batched stream differs from per-slot twin:\n batch    %+v\n per-slot %+v", tc.name, trial, got, want)
			}
		}
	}
}

// TestCBRSpanIsClosedForm: a span over a long-period CBR costs O(emissions),
// not O(slots) — this span would take hours slot by slot.
func TestCBRSpanIsClosedForm(t *testing.T) {
	src := &CBR{Flows: []cell.Flow{{In: 0, Out: 1}, {In: 1, Out: 0}}, Period: 1 << 40, Phase: []cell.Time{7, 1 << 39}, Until: cell.None}
	got := src.AppendArrivals(nil, 3, 1<<41)
	want := []Arrival{{In: 0, Out: 1, T: 7}, {In: 1, Out: 0, T: 1 << 39}, {In: 0, Out: 1, T: 1<<40 + 7}, {In: 1, Out: 0, T: 1<<40 + 1<<39}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// BenchmarkSpanVsPerSlot contrasts per-slot interface stepping with
// span-batched slab generation for the bursty on/off source the official
// bench regime leans on (satellite: profile-guided evidence for Layer 1).
func BenchmarkSpanVsPerSlot(b *testing.B) {
	const n = 64
	mk := func() Source {
		o, err := NewOnOff(n, 8, 8*(1-0.6)/0.6, cell.None, 1)
		if err != nil {
			b.Fatal(err)
		}
		return o
	}
	b.Run("perslot", func(b *testing.B) {
		src := mk()
		var buf []Arrival
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = src.Arrivals(cell.Time(i), buf[:0])
		}
	})
	for _, span := range []cell.Time{16, 256} {
		b.Run("span"+itoa(int(span)), func(b *testing.B) {
			src := mk().(BatchSource)
			var buf []Arrival
			b.ResetTimer()
			for from := cell.Time(0); from < cell.Time(b.N); from += span {
				to := from + span
				if to > cell.Time(b.N) {
					to = cell.Time(b.N)
				}
				buf = src.AppendArrivals(buf[:0], from, to)
			}
		})
	}
}

// BenchmarkSpanVsPerSlotSparseTrace shows the closed-form span expansion on
// a sparse trace: per-slot stepping pays a map probe per slot while
// AppendArrivals binary-searches once per span and walks only the occupied
// slots.
func BenchmarkSpanVsPerSlotSparseTrace(b *testing.B) {
	const period = 64
	mk := func(slots int) *Trace {
		tr := NewTrace()
		for t := 0; t < slots; t += period {
			if err := tr.Add(cell.Time(t), cell.Port(t%4), cell.Port((t+1)%4)); err != nil {
				b.Fatal(err)
			}
		}
		return tr
	}
	b.Run("perslot", func(b *testing.B) {
		tr := mk(b.N)
		var buf []Arrival
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = tr.Arrivals(cell.Time(i), buf[:0])
		}
	})
	b.Run("span256", func(b *testing.B) {
		tr := mk(b.N)
		var buf []Arrival
		b.ResetTimer()
		for from := cell.Time(0); from < cell.Time(b.N); from += 256 {
			to := from + 256
			if to > cell.Time(b.N) {
				to = cell.Time(b.N)
			}
			buf = tr.AppendArrivals(buf[:0], from, to)
		}
	})
}

// itoa avoids importing strconv for two benchmark labels.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var d [8]byte
	i := len(d)
	for v > 0 {
		i--
		d[i] = byte('0' + v%10)
		v /= 10
	}
	return string(d[i:])
}
