package obs

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// exactPercentile is the nearest-rank reference (the stats.Summary
// convention), reimplemented here so the test does not depend on the stats
// package.
func exactPercentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := int(p / 100 * float64(n))
	if float64(rank) < p/100*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func TestHistBucketContainsValue(t *testing.T) {
	vals := []int64{0, 1, 2, 63, 64, 65, 127, 128, 129, 1000, 1 << 20, 1<<20 + 3,
		1<<30 - 1, 1 << 30, histMaxValue, histMaxValue + 100}
	for v := int64(0); v < 4096; v++ {
		vals = append(vals, v)
	}
	for _, v := range vals {
		idx := histBucket(v)
		lo := histLower(idx)
		w := histWidthAt(idx)
		cv := v
		if cv > histMaxValue {
			cv = histMaxValue
		}
		if cv < lo || cv >= lo+w {
			t.Fatalf("value %d: bucket %d covers [%d,%d), does not contain it", v, idx, lo, lo+w)
		}
		if v < histSubCount && (lo != v || w != 1) {
			t.Fatalf("value %d below subCount should be exact, got lower=%d width=%d", v, lo, w)
		}
	}
	// Bucket indices must be monotone and within range.
	last := -1
	for v := int64(0); v < 1<<18; v++ {
		idx := histBucket(v)
		if idx < last || idx >= histBuckets {
			t.Fatalf("value %d: bucket %d (last %d, max %d)", v, idx, last, histBuckets)
		}
		last = idx
	}
}

func TestLogHistQuantileMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewLogHist()
	var samples []int64
	for i := 0; i < 20000; i++ {
		var v int64
		switch i % 4 {
		case 0:
			v = rng.Int63n(50) // exact region
		case 1:
			v = rng.Int63n(1 << 16)
		case 2:
			v = -rng.Int63n(1 << 10) // negative RQD region
		default:
			v = rng.Int63n(1 << 30)
		}
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{0, 1, 10, 50, 90, 99, 99.9, 100} {
		exact := exactPercentile(samples, p)
		got := h.quantile(p)
		w := BucketWidth(exact)
		if got > exact || exact-got >= w {
			if !(got <= exact+w && got >= exact-w) {
				t.Fatalf("p%v: hist %d vs exact %d (bucket width %d)", p, got, exact, w)
			}
		}
		// The histogram answer must sit in the bucket holding the exact
		// answer (or be clamped to the exact min/max).
		if diff := got - exact; diff >= w || diff <= -w {
			t.Fatalf("p%v: hist %d off by %d, more than bucket width %d", p, got, diff, w)
		}
	}
	if h.Min() != samples[0] || h.Max() != samples[len(samples)-1] {
		t.Fatalf("min/max not exact: got %d/%d want %d/%d", h.Min(), h.Max(), samples[0], samples[len(samples)-1])
	}
}

func TestLogHistExactBelow64(t *testing.T) {
	h := NewLogHist()
	var samples []int64
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(64) - 32 // all magnitudes < 64: unit buckets
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{25, 50, 75, 99, 99.9} {
		if got, want := h.quantile(p), exactPercentile(samples, p); got != want {
			t.Fatalf("p%v: got %d want exact %d", p, got, want)
		}
	}
}

func TestLogHistMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	serial := NewLogHist()
	shards := []*LogHist{NewLogHist(), NewLogHist(), NewLogHist()}
	for i := 0; i < 9000; i++ {
		v := rng.Int63n(1<<20) - 1<<10
		serial.Record(v)
		shards[i%3].Record(v)
	}
	// Folding each shard in as its growth since an empty snapshot is exactly
	// recording the union serially: bucket counts and the exact
	// min/max/sum are all order-free.
	merged := NewLogHist()
	for _, s := range shards {
		merged.MergeDelta(s, NewLogHist())
	}
	if !reflect.DeepEqual(serial, merged) {
		t.Fatalf("merged shards differ from serial histogram: %+v vs %+v", serial.Summary(), merged.Summary())
	}
}

func TestLogHistMergeDeltaNoDoubleCount(t *testing.T) {
	run := NewLogHist()
	prev := NewLogHist()
	totals := NewLogHist()
	want := NewLogHist()
	rng := rand.New(rand.NewSource(5))
	for flush := 0; flush < 4; flush++ {
		for i := 0; i < 1000; i++ {
			v := rng.Int63n(500) - 50
			run.Record(v)
			want.Record(v)
		}
		totals.MergeDelta(run, prev)
		prev.copyFrom(run)
	}
	if !reflect.DeepEqual(totals, want) {
		t.Fatalf("delta-merged totals differ from direct recording: %+v vs %+v", totals.Summary(), want.Summary())
	}
	// A flush with no growth must be a no-op.
	before := *totals
	totals.MergeDelta(run, prev)
	if !reflect.DeepEqual(&before, totals) {
		t.Fatal("empty delta changed totals")
	}
}

func TestLogHistRecordN(t *testing.T) {
	a, b := NewLogHist(), NewLogHist()
	for _, v := range []int64{-7, 0, 3, 100, 1 << 22} {
		a.recordN(v, 13)
		for i := 0; i < 13; i++ {
			b.Record(v)
		}
	}
	a.recordN(42, 0)
	a.recordN(42, -5)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("recordN differs from repeated Record: %+v vs %+v", a.Summary(), b.Summary())
	}
}

func TestLogHistEmptyAndReset(t *testing.T) {
	h := NewLogHist()
	if q := h.Summary(); q != (Quantiles{}) {
		t.Fatalf("empty histogram summary not zero: %+v", q)
	}
	h.Record(9)
	h.Reset()
	if h.N() != 0 || h.quantile(50) != 0 {
		t.Fatal("reset did not empty the histogram")
	}
}

// recorded returns a fresh histogram holding the given samples in order.
func recorded(samples ...[]int64) *LogHist {
	h := NewLogHist()
	for _, s := range samples {
		for _, v := range s {
			h.Record(v)
		}
	}
	return h
}

// Sample sets whose columns differ: short stays in the unit buckets with no
// negatives (neg nil); long reaches octave 20 on both signs.
var (
	shortSamples = []int64{0, 1, 7, 63, 5}
	longSamples  = []int64{-3, 2000, 1 << 20, -(1 << 12), 64, 1023}
)

// TestLogHistColumnsUnequalLengths pins MergeDelta and copyFrom
// between histograms whose columns have different lengths, in both
// directions and with nil vs non-nil neg: every result is DeepEqual to
// recording the same samples directly.
func TestLogHistColumnsUnequalLengths(t *testing.T) {
	pairs := [][2][]int64{{shortSamples, longSamples}, {longSamples, shortSamples}}
	for _, p := range pairs {
		a, b := p[0], p[1]
		want := recorded(a, b)

		merged := recorded(a)
		merged.MergeDelta(recorded(b), NewLogHist())
		if !reflect.DeepEqual(merged, want) {
			t.Errorf("MergeDelta of all of %v into %v: %+v, want %+v", b, a, merged, want)
		}

		// The run records a, is snapshotted into prev, then records b: prev's
		// columns are shorter than the run's (or nil where the run's are not).
		run, prev := recorded(a), NewLogHist()
		prev.copyFrom(run)
		for _, v := range b {
			run.Record(v)
		}
		totals := recorded(a)
		totals.MergeDelta(run, prev)
		if !reflect.DeepEqual(totals, want) {
			t.Errorf("MergeDelta of %v after %v: %+v, want %+v", b, a, totals, want)
		}

		// copyFrom into storage of the other length, then keep recording:
		// a stale tail left in the copy's storage would show up here.
		cp := recorded(b)
		cp.copyFrom(recorded(a))
		if !reflect.DeepEqual(cp, recorded(a)) {
			t.Errorf("copyFrom %v over %v: %+v, want %+v", a, b, cp, recorded(a))
		}
		for _, v := range b {
			cp.Record(v)
		}
		if !reflect.DeepEqual(cp, want) {
			t.Errorf("recording %v after copyFrom %v: %+v, want %+v", b, a, cp, want)
		}
	}
	if recorded(shortSamples).neg != nil {
		t.Error("neg allocated without a negative sample")
	}
}

// TestLogHistCopyFromDoesNotAlias: recording into the source after a copy
// leaves the copy unchanged.
func TestLogHistCopyFromDoesNotAlias(t *testing.T) {
	src, dst := recorded(longSamples), NewLogHist()
	dst.copyFrom(src)
	before := dst.Summary()
	for _, v := range longSamples {
		src.recordN(v, 1000)
	}
	if got := dst.Summary(); got != before {
		t.Fatalf("copy changed after recording into its source: %v, want %v", got, before)
	}
}

// TestLogHistResetThenRecord: a reset histogram keeps its storage but
// re-records exactly like a fresh one.
func TestLogHistResetThenRecord(t *testing.T) {
	h := recorded(longSamples, shortSamples)
	h.Reset()
	for _, v := range longSamples {
		h.Record(v)
	}
	if want := recorded(longSamples); !reflect.DeepEqual(h, want) {
		t.Fatalf("reset then re-record: %+v, want %+v", h, want)
	}
}

// TestLogHistClampsIntoLastBucket: magnitudes above histMaxValue land in the
// last bucket of a full-length column, on both signs.
func TestLogHistClampsIntoLastBucket(t *testing.T) {
	h := NewLogHist()
	h.Record(histMaxValue + 100)
	h.Record(-histMaxValue - 5)
	for name, col := range map[string][]int64{"pos": h.pos, "neg": h.neg} {
		if len(col) != histBuckets {
			t.Errorf("%s column has %d buckets, want all %d", name, len(col), histBuckets)
		} else if col[histBuckets-1] != 1 {
			t.Errorf("%s column: the clamped sample is not in the last bucket", name)
		}
	}
	if h.Max() != histMaxValue+100 || h.quantile(100) != histMaxValue+100 {
		t.Errorf("max not exact: %d", h.Max())
	}
}

// TestDelaySetSpillKeepsNeighbours: RQD's column sits first in the slab, so
// if it outgrew its share in place it would write Demux's buckets. It must
// spill to its own storage instead.
func TestDelaySetSpillKeepsNeighbours(t *testing.T) {
	d := NewDelaySet()
	low := []int64{0, 5, 100, 1000}
	for _, v := range low {
		d.RQD.Record(v)
		d.Demux.Record(v)
	}
	high := []int64{1 << 10, 1 << 20, 1 << 30}
	for _, v := range high {
		d.RQD.Record(v)
	}
	if cap(d.RQD.pos) <= delaySlabShare {
		t.Fatalf("RQD column holds %d buckets in a %d-bucket share", len(d.RQD.pos), delaySlabShare)
	}
	d.Demux.Record(1023)
	if want := recorded(low, high); !reflect.DeepEqual(&d.RQD, want) {
		t.Errorf("spilled RQD: %+v, want %+v", d.RQD, want)
	}
	if want := recorded(low, []int64{1023}); !reflect.DeepEqual(&d.Demux, want) {
		t.Errorf("neighbour Demux disturbed: %+v, want %+v", d.Demux, want)
	}
}

var delaySetSink *DelaySet

// TestDelaySetAllocs guards the layout: NewDelaySet is one object plus one
// slab, and recording within the reserved four octaves never allocates,
// even into a fresh set.
func TestDelaySetAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { delaySetSink = NewDelaySet() }); a > 2 {
		t.Errorf("NewDelaySet: %.1f allocs, want <= 2", a)
	}
	sets := make([]*DelaySet, 101) // AllocsPerRun calls f once more to warm up
	for i := range sets {
		sets[i] = NewDelaySet()
	}
	next := 0
	record := func() {
		d := sets[next]
		next++
		for v := int64(0); v < 1<<10; v += 3 {
			for _, h := range d.hists() {
				h.Record(v)
			}
		}
	}
	if a := testing.AllocsPerRun(100, record); a != 0 {
		t.Errorf("recording below 1 024 into a fresh DelaySet: %.1f allocs, want 0", a)
	}
}

// BenchmarkDelaySetRecord prices the Recorder's per-cell pattern: the three
// stage waits, the total, the inter-departure gap and one negative RQD.
func BenchmarkDelaySetRecord(b *testing.B) {
	d := NewDelaySet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		demux, plane, reseq := int64(i&3), int64(5+i&15), int64(i&7)
		d.Demux.Record(demux)
		d.Plane.Record(plane)
		d.Reseq.Record(reseq)
		d.Total.Record(demux + plane + reseq)
		d.Gap.Record(int64(1 + i&1))
		d.RQD.Record(-int64(1 + i&3))
	}
}

func TestDelaySetQuantiles(t *testing.T) {
	d := NewDelaySet()
	d.RQD.Record(5)
	d.Gap.Record(2)
	q := d.Quantiles()
	if q.RQD.N != 1 || q.RQD.P50 != 5 || q.Gap.P50 != 2 || q.Demux.N != 0 {
		t.Fatalf("unexpected quantiles: %+v", q)
	}
}
