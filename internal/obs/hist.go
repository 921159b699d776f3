package obs

import (
	"fmt"
	"math/bits"
)

// LogHist bucketization: values below subCount land in exact unit-width
// buckets; above, each power-of-two octave is split into halfSub linear
// sub-buckets, so the relative bucket-width error is bounded by 1/halfSub
// (~3%) everywhere. This is the HDR-histogram layout specialized to
// integer slot counts.
const (
	histSubBits  = 6
	histSubCount = 1 << histSubBits     // 64 exact unit buckets
	histHalfSub  = histSubCount / 2     // 32 sub-buckets per octave
	histMaxValue = (int64(1) << 41) - 1 // magnitudes clamp here (~2.2e12 slots)
	histBuckets  = histSubCount + (41-histSubBits)*histHalfSub
)

// histBucket maps a non-negative magnitude to its bucket index.
func histBucket(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	if v > histMaxValue {
		v = histMaxValue
	}
	m := bits.Len64(uint64(v)) - 1 // exponent of the octave, >= histSubBits
	shift := uint(m - histSubBits + 1)
	top := v >> shift // in [histHalfSub, histSubCount)
	return histSubCount + (m-histSubBits)*histHalfSub + int(top) - histHalfSub
}

// histLower returns the smallest magnitude in bucket idx.
func histLower(idx int) int64 {
	if idx < histSubCount {
		return int64(idx)
	}
	o := (idx - histSubCount) / histHalfSub
	r := (idx - histSubCount) % histHalfSub
	return int64(histHalfSub+r) << uint(o+1)
}

// histWidthAt returns the width of bucket idx.
func histWidthAt(idx int) int64 {
	if idx < histSubCount {
		return 1
	}
	return int64(1) << uint((idx-histSubCount)/histHalfSub+1)
}

// BucketWidth reports the width of the LogHist bucket that holds value v
// (by magnitude; the layout is symmetric around zero). Values below 64 sit
// in unit-width buckets, so quantiles over them are exact; tests use this
// to bound the histogram-vs-exact percentile error.
func BucketWidth(v int64) int64 {
	if v < 0 {
		v = -v
	}
	return histWidthAt(histBucket(v))
}

// histColumnLen is the length of a column that holds bucket idx: the end of
// idx's octave, counting the unit buckets as the first (64, then +32 per
// octave). A column's length is thus a pure function of the largest bucket
// recorded, so histograms that saw the same samples, serially or merged,
// have equal columns.
func histColumnLen(idx int) int {
	if idx < histSubCount {
		return histSubCount
	}
	return idx - (idx-histSubCount)%histHalfSub + histHalfSub
}

// growColumn extends col to hold bucket idx. Every element of a column past
// its length is zero, so growth within capacity is a reslice; otherwise the
// capacity doubles (up to histBuckets).
func growColumn(col []int64, idx int) []int64 {
	n := histColumnLen(idx)
	if n <= cap(col) {
		return col[:n]
	}
	grown := make([]int64, n, min(histBuckets, max(n, 2*cap(col))))
	copy(grown, col)
	return grown
}

// addColumn adds add − sub into col bucket-wise, extending col to add's
// length. sub is nil or an earlier snapshot of add, so it is no longer.
func addColumn(col, add, sub []int64) []int64 {
	if len(add) > len(col) {
		col = growColumn(col, len(add)-1)
	}
	for i, c := range add {
		col[i] += c
	}
	for i, c := range sub {
		col[i] -= c
	}
	return col
}

// copyColumn makes col an exact copy of src in col's own storage. A nil src
// gives nil, so a copy is DeepEqual to its source.
func copyColumn(col, src []int64) []int64 {
	if src == nil {
		return nil
	}
	if len(src) > len(col) {
		col = growColumn(col, len(src)-1)
	} else {
		clear(col[len(src):])
		col = col[:len(src)]
	}
	copy(col, src)
	return col
}

// LogHist is a streaming log-bucketed histogram over signed integer samples
// (delays measured in slots; relative queuing delay can be negative).
// Record is O(1), and histograms merge bucket-wise — per-shard histograms
// combined in shard order reproduce the serial histogram exactly, which is
// what keeps the stage-parallel engine bit-identical. Exact min/max/sum are
// tracked beside the buckets, so only interior quantiles carry bucket-width
// error (none at all for magnitudes below 64). A LogHist is driven from one
// goroutine.
//
// Each sign's counts live in a column sized to its samples: it grows an
// octave at a time, only as far as the largest bucket recorded, so a column
// grows at most 36 times per run and recording is allocation-free once the
// run's largest delay has been seen. neg stays nil until the first negative
// sample.
type LogHist struct {
	pos []int64 // counts for samples >= 0
	neg []int64 // counts for samples < 0, bucketed by magnitude
	n   int64
	sum int64
	min int64
	max int64
}

// NewLogHist returns an empty histogram; its columns grow on demand.
func NewLogHist() *LogHist { return &LogHist{} }

// Record adds one sample.
func (h *LogHist) Record(v int64) { h.RecordN(v, 1) }

// RecordN adds n identical samples in O(1) — the closed-form batch path
// idle-span synthesis and span-style callers rely on. n <= 0 records
// nothing.
func (h *LogHist) RecordN(v int64, n int64) {
	if n <= 0 {
		return
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n += n
	h.sum += v * n
	if v >= 0 {
		if i := histBucket(v); uint(i) < uint(len(h.pos)) {
			h.pos[i] += n
			return
		}
	} else if i := histBucket(-v); uint(i) < uint(len(h.neg)) {
		h.neg[i] += n
		return
	}
	h.grow(v, n)
}

// grow is RecordN's out-of-line path: it extends the column v's bucket lies
// beyond, then counts v there. As a tail call it keeps RecordN's fast path
// free of spills.
//
//go:noinline
func (h *LogHist) grow(v, n int64) {
	if v >= 0 {
		i := histBucket(v)
		h.pos = growColumn(h.pos, i)
		h.pos[i] += n
	} else {
		i := histBucket(-v)
		h.neg = growColumn(h.neg, i)
		h.neg[i] += n
	}
}

// N reports the number of recorded samples.
func (h *LogHist) N() int64 { return h.n }

// Min returns the smallest sample (exact), or 0 when empty.
func (h *LogHist) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample (exact), or 0 when empty.
func (h *LogHist) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean (exact), or 0 when empty.
func (h *LogHist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the p-th percentile (0 <= p <= 100) by the nearest-rank
// method — the same convention as stats.Summary.Percentile, so the two agree
// to within the width of the bucket holding the exact answer. The returned
// value is the lower bound of the selected bucket (for negative samples, the
// bucket's upper bound), clamped into [Min, Max]; magnitudes below 64 are
// exact. Returns 0 when empty.
func (h *LogHist) Quantile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := int64(p / 100 * float64(h.n))
	if float64(rank) < p/100*float64(h.n) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	var seen int64
	// Ascending value order: most negative first (high magnitude buckets of
	// neg), then non-negative buckets.
	for i := len(h.neg) - 1; i >= 0; i-- {
		seen += h.neg[i]
		if seen >= rank {
			return h.clamp(-histLower(i))
		}
	}
	for i, c := range h.pos {
		seen += c
		if seen >= rank {
			return h.clamp(histLower(i))
		}
	}
	return h.max // unreachable: counts sum to h.n
}

func (h *LogHist) clamp(v int64) int64 {
	if v < h.min {
		return h.min
	}
	if v > h.max {
		return h.max
	}
	return v
}

// Merge adds o's samples into h. Merging per-shard histograms in shard order
// is exactly equivalent to recording the union serially (bucket counts and
// the exact min/max/sum are all order-free).
func (h *LogHist) Merge(o *LogHist) {
	if o == nil || o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
	h.pos = addColumn(h.pos, o.pos, nil)
	h.neg = addColumn(h.neg, o.neg, nil)
}

// MergeDelta adds the samples cur has accumulated since prev (prev must be
// an earlier snapshot of the same histogram, so its columns are no longer
// than cur's). The telemetry flusher uses it to fold a live run's growth
// into cross-run totals without double counting.
func (h *LogHist) MergeDelta(cur, prev *LogHist) {
	dn := cur.n - prev.n
	if dn <= 0 {
		return
	}
	if h.n == 0 || cur.min < h.min {
		h.min = cur.min
	}
	if h.n == 0 || cur.max > h.max {
		h.max = cur.max
	}
	h.n += dn
	h.sum += cur.sum - prev.sum
	h.pos = addColumn(h.pos, cur.pos, prev.pos)
	h.neg = addColumn(h.neg, cur.neg, prev.neg)
}

// CopyFrom makes h an exact copy of o in h's own storage, which grows only
// when o's columns outgrow it.
func (h *LogHist) CopyFrom(o *LogHist) {
	h.pos = copyColumn(h.pos, o.pos)
	h.neg = copyColumn(h.neg, o.neg)
	h.n, h.sum, h.min, h.max = o.n, o.sum, o.min, o.max
}

// Reset empties the histogram without releasing storage.
func (h *LogHist) Reset() {
	clear(h.pos)
	clear(h.neg)
	*h = LogHist{pos: h.pos[:0], neg: h.neg[:0]}
}

// Summary freezes the headline quantiles.
func (h *LogHist) Summary() Quantiles {
	return Quantiles{
		N:    h.N(),
		Mean: h.Mean(),
		Min:  h.Min(),
		P50:  h.Quantile(50),
		P99:  h.Quantile(99),
		P999: h.Quantile(99.9),
		Max:  h.Max(),
	}
}

// Quantiles is the frozen headline summary of one LogHist. Mean, Min and
// Max are exact; P50/P99/P999 carry at most one bucket width of error.
type Quantiles struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	Min  int64   `json:"min"`
	P50  int64   `json:"p50"`
	P99  int64   `json:"p99"`
	P999 int64   `json:"p999"`
	Max  int64   `json:"max"`
}

// String renders the quantiles on one line.
func (q Quantiles) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%d p50=%d p99=%d p999=%d max=%d",
		q.N, q.Mean, q.Min, q.P50, q.P99, q.P999, q.Max)
}

// DelaySet groups the six delay-attribution histograms of one matched run:
// per-cell relative queuing delay, the three-stage decomposition of the PPS
// delay (demultiplexor wait, plane queuing, resequencing wait), the total
// end-to-end PPS delay, and the inter-departure gap per output (jitter).
type DelaySet struct {
	RQD   LogHist
	Demux LogHist
	Plane LogHist
	Reseq LogHist
	Total LogHist
	Gap   LogHist
}

// delaySlabShare is each DelaySet histogram's share of the slab NewDelaySet
// carves its pos columns from: the unit buckets plus four octaves
// (magnitudes below 1 024), where a sweep point's delays almost always stay.
const delaySlabShare = histSubCount + 4*histHalfSub

// NewDelaySet returns the six histograms in one object, their pos columns
// carved from one slab. Each column starts empty with its share as capacity;
// the full slice expression keeps neighbours apart, so a column that outgrows
// its share moves to its own allocation.
func NewDelaySet() *DelaySet {
	d := new(DelaySet)
	hs := d.hists()
	slab := make([]int64, len(hs)*delaySlabShare)
	for i, h := range hs {
		lo, hi := i*delaySlabShare, (i+1)*delaySlabShare
		h.pos = slab[lo:lo:hi]
	}
	return d
}

func (d *DelaySet) hists() [6]*LogHist {
	return [6]*LogHist{&d.RQD, &d.Demux, &d.Plane, &d.Reseq, &d.Total, &d.Gap}
}

// CopyFrom snapshots src into d, allocating only when src's columns outgrow
// d's.
func (d *DelaySet) CopyFrom(src *DelaySet) {
	dh, sh := d.hists(), src.hists()
	for i := range dh {
		dh[i].CopyFrom(sh[i])
	}
}

// MergeDelta folds cur−prev into d, histogram by histogram (see
// LogHist.MergeDelta).
func (d *DelaySet) MergeDelta(cur, prev *DelaySet) {
	dh, ch, ph := d.hists(), cur.hists(), prev.hists()
	for i := range dh {
		dh[i].MergeDelta(ch[i], ph[i])
	}
}

// Quantiles freezes the headline quantiles of every component.
func (d *DelaySet) Quantiles() DelayQuantiles {
	return DelayQuantiles{
		RQD:   d.RQD.Summary(),
		Demux: d.Demux.Summary(),
		Plane: d.Plane.Summary(),
		Reseq: d.Reseq.Summary(),
		Total: d.Total.Summary(),
		Gap:   d.Gap.Summary(),
	}
}

// DelayQuantiles is the frozen per-component percentile block: one Quantiles
// per delay-attribution histogram. It is embedded in metrics.Report and in
// telemetry snapshots (field names are the JSON schema of /telemetry).
type DelayQuantiles struct {
	// RQD is the per-cell relative queuing delay (PPS departure slot minus
	// shadow departure slot; negative when the PPS overtakes FCFS order).
	RQD Quantiles `json:"rqd"`
	// Demux is the wait in the input-port buffer before dispatch.
	Demux Quantiles `json:"demux_wait"`
	// Plane is the time between dispatch and the mux pull (plane queue plus
	// both line transmissions).
	Plane Quantiles `json:"plane_wait"`
	// Reseq is the wait in the output resequencing buffer.
	Reseq Quantiles `json:"reseq_wait"`
	// Total is the end-to-end PPS delay (arrival to departure); for cells
	// with all stamps, Demux + Plane + Reseq sums to it per cell.
	Total Quantiles `json:"total_delay"`
	// Gap is the inter-departure gap between consecutive departures on the
	// same output — the jitter a downstream line observes.
	Gap Quantiles `json:"interdeparture_gap"`
}
