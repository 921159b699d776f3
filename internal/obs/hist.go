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
	histSubCount = 1 << histSubBits      // 64 exact unit buckets
	histHalfSub  = histSubCount / 2      // 32 sub-buckets per octave
	histMaxValue = (int64(1) << 41) - 1  // magnitudes clamp here (~2.2e12 slots)
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

// LogHist is a streaming log-bucketed histogram over signed integer samples
// (delays measured in slots; relative queuing delay can be negative).
// Record is O(1), allocation-free after construction, and histograms merge
// bucket-wise — per-shard histograms combined in shard order reproduce the
// serial histogram exactly, which is what keeps the stage-parallel engine
// bit-identical. Exact min/max/sum are tracked beside the buckets, so only
// interior quantiles carry bucket-width error (none at all for magnitudes
// below 64). A LogHist is driven from one goroutine.
type LogHist struct {
	pos [histBuckets]int64 // counts for samples >= 0
	neg [histBuckets]int64 // counts for samples < 0, bucketed by magnitude
	n   int64
	sum int64
	min int64
	max int64
}

// NewLogHist returns an empty histogram. All storage is allocated here, so
// the record path never touches the heap.
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
		h.pos[histBucket(v)] += n
	} else {
		h.neg[histBucket(-v)] += n
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
	for i := histBuckets - 1; i >= 0; i-- {
		seen += h.neg[i]
		if seen >= rank {
			return h.clamp(-histLower(i))
		}
	}
	for i := 0; i < histBuckets; i++ {
		seen += h.pos[i]
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
	for i := range h.pos {
		h.pos[i] += o.pos[i]
		h.neg[i] += o.neg[i]
	}
}

// MergeDelta adds the samples cur has accumulated since prev (prev must be
// an earlier snapshot of the same histogram). The telemetry flusher uses it
// to fold a live run's growth into cross-run totals without double counting.
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
	for i := range h.pos {
		h.pos[i] += cur.pos[i] - prev.pos[i]
		h.neg[i] += cur.neg[i] - prev.neg[i]
	}
}

// CopyFrom makes h an exact copy of o without allocating.
func (h *LogHist) CopyFrom(o *LogHist) { *h = *o }

// Reset empties the histogram without releasing storage.
func (h *LogHist) Reset() { *h = LogHist{} }

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
	RQD   *LogHist
	Demux *LogHist
	Plane *LogHist
	Reseq *LogHist
	Total *LogHist
	Gap   *LogHist
}

// NewDelaySet allocates all six histograms.
func NewDelaySet() *DelaySet {
	return &DelaySet{
		RQD:   NewLogHist(),
		Demux: NewLogHist(),
		Plane: NewLogHist(),
		Reseq: NewLogHist(),
		Total: NewLogHist(),
		Gap:   NewLogHist(),
	}
}

func (d *DelaySet) hists() [6]*LogHist {
	return [6]*LogHist{d.RQD, d.Demux, d.Plane, d.Reseq, d.Total, d.Gap}
}

// CopyFrom snapshots src into d without allocating.
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
