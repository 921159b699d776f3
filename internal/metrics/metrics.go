// Package metrics computes the paper's figures of merit from matched
// executions of a PPS and its shadow reference switch.
//
//   - Relative queuing delay (RQD) of a cell: its PPS departure slot minus
//     its shadow departure slot (propagation-free accounting; per-cell RQD
//     can be negative when the PPS overtakes the FCFS order for an
//     uncontended cell). The RQD of an execution is the maximum over cells.
//   - Per-flow delay jitter: the maximal difference in queuing delay
//     between two cells of the same flow. The relative delay jitter (RDJ)
//     of an execution is the maximum over flows of (PPS jitter − shadow
//     jitter).
package metrics

import (
	"fmt"
	"math"
	"strings"

	"ppsim/internal/cell"
	"ppsim/internal/obs"
	"ppsim/internal/stats"
)

// minmax tracks delay extremes for one flow in one switch. An empty record
// is the sentinel min > max (emptyMinMax), so no sample count is kept: the
// only questions asked of it are "seen at all?" and the jitter, which is 0
// for a single sample (min == max) exactly as for none.
type minmax struct{ min, max cell.Time }

var emptyMinMax = minmax{min: math.MaxInt64, max: math.MinInt64}

func (m *minmax) add(v cell.Time) {
	m.min = min(m.min, v)
	m.max = max(m.max, v)
}

func (m *minmax) seen() bool { return m.min <= m.max }

func (m *minmax) jitter() cell.Time {
	if !m.seen() {
		return 0
	}
	return m.max - m.min
}

// flowStat is one flow's record: its delay extremes in the PPS and in the
// shadow switch, 32 bytes.
type flowStat struct{ pps, sh minmax }

// dropMark flags a Seq the PPS dropped (DropCount fault policy) as its PPS
// fate: the cell will never depart the PPS, and recording either a
// departure or a second drop for it is a harness bug.
const dropMark = cell.Time(-2)

// expiredMark flags a Seq whose cell left the PPS after its deadline under
// deadline-drop admission: the delivery is reclassified as expired at
// egress and excluded from every delay statistic, like a fault drop.
const expiredMark = cell.Time(-3)

// fate is the join state of one in-flight cell: the slot it leaves the
// shadow switch and its PPS fate — a departure slot, dropMark or
// expiredMark. cell.None = not yet reported.
type fate struct{ shadow, pps cell.Time }

// fateRingCap is the initial capacity of the in-flight window (4 KiB); it
// doubles whenever more sequence numbers than that are in flight at once.
const fateRingCap = 256

// Recorder joins the two departure streams by global sequence number.
// Departures may be reported in any order and from either switch first.
// Cells the PPS dropped (failed planes under the DropCount policy) are
// reported through PPSDrop; they depart the shadow switch — the reference
// never drops — but are excluded from every delay statistic. Per-flow state
// is one 32-byte record per flow, held by value in a paged cell.Column
// indexed by the flow's id - 1 in a cell.FlowIndex: no heap object per flow,
// no copy as the flows accumulate, and — when the index is the Stamper's
// (NewRecorderOn, the harness path) — no second index for the run.
type Recorder struct {
	// ring holds the fates of the in-flight sequence window [base, hi), cell
	// seq at ring[seq&(len-1)] (len is a power of two). hi advances when a
	// new Seq is first reported, base when the oldest cell has both fates, so
	// memory follows the in-flight span, not the run length. Every Seq below
	// base has both fates recorded: reporting one again is a double record.
	ring     []fate
	base, hi uint64

	drops         uint64
	dropsPerPlane []uint64
	dropsPerInput []uint64

	rqd stats.Counts

	// Per-flow delay extremes, indexed by the flow's id - 1 in flows.
	// trustIDs is set when flows is the index that stamped the cells
	// (NewRecorderOn, the Stamper's): a stamped cell's FlowID is then its id
	// here and is not looked up. Otherwise, and for a cell no Stamper saw
	// (the benchmark's shadow replay builds them with cell.New), the flow is
	// looked up by (In, Out): another index's FlowID would name another flow.
	flows    *cell.FlowIndex
	trustIDs bool
	stats    cell.Column[flowStat] // flow id - 1 → PPS and shadow delay extremes
	ppsFlows int                   // flows with >= 1 PPS departure (Report.Flows)

	// delays holds the streaming log-bucketed histograms behind the report's
	// percentile block: RQD, the three-stage decomposition (input buffer,
	// plane queue + line, output resequencing buffer), the total PPS delay
	// and the per-output inter-departure gap. Each keeps exact n, sum, min
	// and max beside its buckets, so the report's MaxRQD and stage means and
	// maxima are read from them too. Recording is O(1) and allocation-free;
	// the recorder is fed from one goroutine in the serial order (the
	// stage-parallel engine merges departures before recording), so the
	// histograms are bit-identical across engines.
	delays *obs.DelaySet
	// lastDepart remembers, per output port, the slot of the previous PPS
	// departure, so consecutive departures yield inter-departure gaps.
	lastDepart []cell.Time

	matched uint64

	// Admission accounting. offered and admitted are counted for every
	// arrival the harness feeds, whether or not an admission policy is
	// configured — a bare run and an always-admit run therefore produce
	// byte-identical reports. rejected and the expiry counters only move
	// when a policy actually refuses cells.
	offered          uint64
	admitted         uint64
	rejected         uint64
	rejectedPerInput []uint64
	expiredAdmit     uint64
	expiredReseq     uint64
	onTime           uint64
}

// NewRecorder returns an empty recorder over its own unsized flow index.
func NewRecorder() *Recorder { return NewRecorderSized(0) }

// NewRecorderSized returns a recorder for an n-port switch over its own
// NewFlowIndex(n), its record column paged for at most n*n flows.
func NewRecorderSized(n int) *Recorder {
	return newRecorder(cell.NewFlowIndex(n), false, n, fateRingCap)
}

// NewRecorderOn returns a recorder for an n-port switch that keys its
// per-flow records by the ids of flows — the Stamper's index, so a run keeps
// one. Flows the recorder sees first are minted there too.
func NewRecorderOn(flows *cell.FlowIndex, n int) *Recorder {
	return newRecorder(flows, true, n, fateRingCap)
}

// newRecorderRing is NewRecorder with an explicit initial window capacity (a
// power of two), so tests can force wrap and growth with a handful of cells.
func newRecorderRing(capacity int) *Recorder {
	return newRecorder(cell.NewFlowIndex(0), false, 0, capacity)
}

func newRecorder(flows *cell.FlowIndex, trustIDs bool, n, capacity int) *Recorder {
	hint := 0
	if n > 0 {
		hint = n * n
	}
	return &Recorder{
		ring:       make([]fate, capacity),
		flows:      flows,
		trustIDs:   trustIDs,
		stats:      cell.NewColumn[flowStat](hint),
		delays:     obs.NewDelaySet(),
		lastDepart: make([]cell.Time, 0, cell.StartCap(n)),
	}
}

// flowStat returns cell c's flow record, growing the column to the flow's
// id with empty records: ids the index minted for other layers' flows get
// one too. A cell stamped over flows names its id; any other is looked up
// by (In, Out).
func (r *Recorder) flowStat(c *cell.Cell) *flowStat {
	id := int(c.FlowID)
	if id == 0 || !r.trustIDs {
		id = int(r.flows.ID(c.Flow))
	}
	for r.stats.Len() < id {
		*r.stats.Grow() = flowStat{pps: emptyMinMax, sh: emptyMinMax}
	}
	return r.stats.At(id - 1)
}

// count adds one to s[i], first extending s with zeros to cover i in one
// step.
func count(s []uint64, i int) []uint64 {
	if i >= len(s) {
		s = append(s, make([]uint64, i+1-len(s))...)
	}
	s[i]++
	return s
}

func grow(s []cell.Time, idx uint64) []cell.Time {
	for uint64(len(s)) <= idx {
		s = append(s, cell.None)
	}
	return s
}

// fate returns cell seq's entry in the in-flight window, opening the window
// up to seq when it is new, or nil when seq was already retired.
func (r *Recorder) fate(seq uint64) *fate {
	if seq < r.base {
		return nil
	}
	if seq >= r.hi {
		r.open(seq)
	}
	return &r.ring[seq&uint64(len(r.ring)-1)]
}

// open advances hi past seq, doubling the ring first when [base, seq] no
// longer fits. Growth moves every entry the old ring still held — retired
// ones included, so RQD keeps answering for cells retired this slot.
func (r *Recorder) open(seq uint64) {
	if old, span := uint64(len(r.ring)), seq+1-r.base; span > old {
		size := old
		for size < span {
			size *= 2
		}
		grown := make([]fate, size)
		for s := r.hi - min(r.hi, old); s < r.hi; s++ {
			grown[s&(size-1)] = r.ring[s&(old-1)]
		}
		r.ring = grown
	}
	mask := uint64(len(r.ring) - 1)
	for s := r.hi; s <= seq; s++ {
		r.ring[s&mask] = fate{shadow: cell.None, pps: cell.None}
	}
	r.hi = seq + 1
}

// settle runs after one fate of cell seq was recorded: it joins the cell if
// it has now departed both switches, and retires the front of the window
// while the oldest cell has both fates.
func (r *Recorder) settle(seq uint64, f *fate) {
	if f.shadow == cell.None || f.pps == cell.None {
		return
	}
	if f.pps != dropMark && f.pps != expiredMark {
		d := f.pps - f.shadow
		r.rqd.Add(int64(d))
		r.delays.RQD.Record(int64(d))
		r.matched++
	}
	if seq != r.base {
		return
	}
	mask := uint64(len(r.ring) - 1)
	for r.base++; r.base < r.hi; r.base++ {
		if f := r.ring[r.base&mask]; f.shadow == cell.None || f.pps == cell.None {
			break
		}
	}
}

// ShadowDepart records a departure from the reference switch.
func (r *Recorder) ShadowDepart(c cell.Cell) {
	f := r.fate(c.Seq)
	if f == nil || f.shadow != cell.None {
		panic(fmt.Sprintf("metrics: shadow departure of cell %d recorded twice", c.Seq))
	}
	f.shadow = c.Depart
	r.flowStat(&c).sh.add(c.Depart - c.Arrive)
	r.settle(c.Seq, f)
}

// PPSDepart records a departure from the PPS.
func (r *Recorder) PPSDepart(c cell.Cell) {
	f := r.fate(c.Seq)
	if f == nil || f.pps != cell.None {
		panic(fmt.Sprintf("metrics: PPS departure of cell %d recorded twice", c.Seq))
	}
	f.pps = c.Depart
	mm := &r.flowStat(&c).pps
	if !mm.seen() {
		r.ppsFlows++
	}
	mm.add(c.Depart - c.Arrive)
	// Stage decomposition, when the intermediate stamps are present (the
	// fabric always sets them; foreign departures may not).
	if c.Dispatch != cell.None && c.AtOutput != cell.None {
		r.delays.Demux.Record(int64(c.Dispatch - c.Arrive))
		r.delays.Plane.Record(int64(c.AtOutput - c.Dispatch))
		r.delays.Reseq.Record(int64(c.Depart - c.AtOutput))
	}
	r.delays.Total.Record(int64(c.Depart - c.Arrive))
	out := uint64(c.Flow.Out)
	r.lastDepart = grow(r.lastDepart, out)
	if last := r.lastDepart[out]; last != cell.None {
		r.delays.Gap.Record(int64(c.Depart - last))
	}
	r.lastDepart[out] = c.Depart
	r.settle(c.Seq, f)
}

// PPSDrop records that the PPS lost cell c to a failed plane (c.Via names
// the plane). The cell still departs the shadow switch; the drop satisfies
// the recorder's every-cell-accounted check in its place.
func (r *Recorder) PPSDrop(c cell.Cell) {
	r.setPPSFate(c.Seq, dropMark)
	r.drops++
	r.dropsPerPlane = count(r.dropsPerPlane, int(c.Via))
	r.dropsPerInput = count(r.dropsPerInput, int(c.Flow.In))
}

// Drops reports the number of cells the PPS dropped so far.
func (r *Recorder) Drops() uint64 { return r.drops }

// OfferCell counts one arrival presented to admission. The harness calls it
// for every arrival of every run — with or without a policy — so admission
// bookkeeping never changes a report shape.
func (r *Recorder) OfferCell() { r.offered++ }

// AdmitCell counts one arrival the policy (or the always-admit default)
// let into the switch; the cell is stamped and fed to both switches.
func (r *Recorder) AdmitCell() { r.admitted++ }

// RejectCell counts one arrival a token bucket refused on input in. The
// cell is never stamped; neither switch sees it.
func (r *Recorder) RejectCell(in cell.Port) {
	r.rejected++
	r.rejectedPerInput = count(r.rejectedPerInput, int(in))
}

// ExpireAtAdmission counts one arrival that was already past its deadline
// when it reached the switch; like a rejection, it is never stamped.
func (r *Recorder) ExpireAtAdmission() { r.expiredAdmit++ }

// PPSExpired reclassifies a PPS delivery that happened after the cell's
// deadline under deadline-drop admission: it satisfies the cell's slot in
// the conservation audit (the shadow still departs it) but contributes to
// no delay statistic.
func (r *Recorder) PPSExpired(c cell.Cell) {
	r.setPPSFate(c.Seq, expiredMark)
	r.expiredReseq++
}

// setPPSFate records a non-departure PPS fate (dropMark or expiredMark).
func (r *Recorder) setPPSFate(seq uint64, mark cell.Time) {
	f := r.fate(seq)
	if f == nil || f.pps != cell.None {
		panic(fmt.Sprintf("metrics: PPS fate of cell %d recorded twice", seq))
	}
	f.pps = mark
	r.settle(seq, f)
}

// OnTimeCell counts one PPS delivery that met its deadline (cells without a
// deadline stamp are on time by definition). The harness calls it alongside
// PPSDepart so OnTimeFraction = on-time deliveries / offered cells.
func (r *Recorder) OnTimeCell() { r.onTime++ }

// AdmittedTotal, RejectedTotal and ExpiredTotal expose the live admission
// counters for the per-slot probes and the telemetry aggregator.
func (r *Recorder) AdmittedTotal() uint64 { return r.admitted }

// RejectedTotal reports arrivals refused by a token bucket so far.
func (r *Recorder) RejectedTotal() uint64 { return r.rejected }

// ExpiredTotal reports deadline expiries so far (at admission and egress).
func (r *Recorder) ExpiredTotal() uint64 { return r.expiredAdmit + r.expiredReseq }

// Matched reports how many cells have departed both switches.
func (r *Recorder) Matched() uint64 { return r.matched }

// Delays exposes the live delay-attribution histograms. The harness flushes
// them into the telemetry aggregator mid-run; they must only be read from
// the goroutine feeding the recorder.
func (r *Recorder) Delays() *obs.DelaySet { return r.delays }

// RQD returns the relative queuing delay of a cell that has left both
// switches by its PPS departure slot — the slot the per-slot front-RQD probe
// samples it in. A cell the PPS delivered ahead of the reference (negative
// RQD) is still queued in the shadow switch at that slot, so like a cell
// with a fate missing, dropped or expired it reads as not yet joined. The
// answer outlives retirement until a later Seq reuses the ring entry, which
// covers every cell retired in the current slot: the window only opens for
// the next slot's arrivals.
func (r *Recorder) RQD(seq uint64) (cell.Time, bool) {
	if seq >= r.hi || r.hi-seq > uint64(len(r.ring)) {
		return 0, false
	}
	f := r.ring[seq&uint64(len(r.ring)-1)]
	// None and both marks are negative; departure slots are not.
	if f.shadow == cell.None || f.pps < 0 || f.pps < f.shadow {
		return 0, false
	}
	return f.pps - f.shadow, true
}

// Report summarizes an execution.
type Report struct {
	// Cells is the number of matched cells.
	Cells uint64
	// MaxRQD is the relative queuing delay of the execution.
	MaxRQD cell.Time
	// MeanRQD is the mean per-cell relative queuing delay.
	MeanRQD float64
	// P50RQD, P99RQD and P999RQD are exact nearest-rank percentiles of the
	// per-cell relative queuing delay, from an exact per-value count table.
	P50RQD  cell.Time
	P99RQD  cell.Time
	P999RQD cell.Time
	// MaxPPSDelay is the largest absolute queuing delay in the PPS.
	MaxPPSDelay cell.Time
	// MaxShadowDelay is the largest absolute queuing delay in the shadow.
	MaxShadowDelay cell.Time
	// RDJ is the relative delay jitter: max over flows of
	// (PPS jitter - shadow jitter).
	RDJ cell.Time
	// MaxPPSJitter is the largest per-flow jitter inside the PPS.
	MaxPPSJitter cell.Time
	// Flows is the number of distinct flows observed.
	Flows int
	// Stage decomposition of the PPS delay (means and maxima per cell):
	// time in the input-port buffer, time in the plane (queue plus the
	// line transmissions on both sides), and time in the output-port
	// resequencing buffer.
	MeanInputWait  float64
	MeanPlaneWait  float64
	MeanOutputWait float64
	MaxInputWait   cell.Time
	MaxPlaneWait   cell.Time
	MaxOutputWait  cell.Time
	// Drops is the number of cells the PPS lost to failed planes under the
	// DropCount fault policy (always 0 under Abort), with per-plane and
	// per-input breakdowns (nil when no drops occurred). Dropped cells are
	// excluded from every delay statistic above.
	Drops         uint64
	DropsPerPlane []uint64
	DropsPerInput []uint64
	// Admission accounting. Offered counts every arrival presented to the
	// switch; Admitted those let in (stamped and fed to both switches).
	// Rejected counts token-bucket refusals (per-input breakdown nil when
	// none); ExpiredAdmit arrivals already past their deadline at admission;
	// ExpiredReseq deliveries reclassified as late at egress. Conservation:
	// Offered == Admitted + Rejected + ExpiredAdmit, and every admitted cell
	// is matched, dropped or expired at egress.
	Offered          uint64
	Admitted         uint64
	Rejected         uint64
	RejectedPerInput []uint64
	ExpiredAdmit     uint64
	ExpiredReseq     uint64
	// OnTime counts PPS deliveries that met their deadline (no-deadline
	// cells are on time by definition); OnTimeFraction is OnTime / Offered —
	// the timely-throughput figure of merit (0 when nothing was offered).
	OnTime         uint64
	OnTimeFraction float64
	// Percentiles is the streaming-histogram percentile block: headline
	// quantiles of the per-cell RQD, the three-stage delay decomposition
	// (demux wait + plane queuing + resequencing wait; the components sum to
	// Total per cell), and the per-output inter-departure gap. Mean, Min and
	// Max are exact; P50/P99/P999 carry at most one log-bucket of error.
	Percentiles obs.DelayQuantiles
}

// Report computes the execution summary. It panics unless every cell is
// accounted for: departed both switches, or departed the shadow and was
// dropped by the PPS (the harness must drain both switches).
func (r *Recorder) Report() Report {
	if r.base != r.hi || r.matched+r.drops+r.expiredReseq != r.hi {
		panic(fmt.Sprintf("metrics: unmatched departures (%d cells seen, cell %d still lacks a fate; matched %d, dropped %d, expired %d)",
			r.hi, r.base, r.matched, r.drops, r.expiredReseq))
	}
	// Conservation audit on the admission side: every offered cell is
	// admitted, rejected or expired-at-admission, and every admitted cell
	// departed the shadow (the audit is skipped for bare recorders fed
	// departures directly, which never call OfferCell).
	if r.offered > 0 {
		if r.offered != r.admitted+r.rejected+r.expiredAdmit {
			panic(fmt.Sprintf("metrics: admission leak (offered %d, admitted %d, rejected %d, expired %d)",
				r.offered, r.admitted, r.rejected, r.expiredAdmit))
		}
		if r.admitted != r.hi {
			panic(fmt.Sprintf("metrics: admitted %d cells but shadow departed %d", r.admitted, r.hi))
		}
	}
	rep := Report{
		Cells:          r.matched,
		MaxRQD:         cell.Time(r.delays.RQD.Max()),
		MeanRQD:        r.rqd.Mean(),
		P50RQD:         cell.Time(r.rqd.Percentile(50)),
		P99RQD:         cell.Time(r.rqd.Percentile(99)),
		P999RQD:        cell.Time(r.rqd.Percentile(99.9)),
		Percentiles:    r.delays.Quantiles(),
		Flows:          r.ppsFlows,
		MeanInputWait:  r.delays.Demux.Mean(),
		MeanPlaneWait:  r.delays.Plane.Mean(),
		MeanOutputWait: r.delays.Reseq.Mean(),
		MaxInputWait:   cell.Time(r.delays.Demux.Max()),
		MaxPlaneWait:   cell.Time(r.delays.Plane.Max()),
		MaxOutputWait:  cell.Time(r.delays.Reseq.Max()),
		Drops:          r.drops,
		Offered:        r.offered,
		Admitted:       r.admitted,
		Rejected:       r.rejected,
		ExpiredAdmit:   r.expiredAdmit,
		ExpiredReseq:   r.expiredReseq,
		OnTime:         r.onTime,
	}
	if r.offered > 0 {
		rep.OnTimeFraction = float64(r.onTime) / float64(r.offered)
	}
	if r.drops > 0 {
		rep.DropsPerPlane = append([]uint64(nil), r.dropsPerPlane...)
		rep.DropsPerInput = append([]uint64(nil), r.dropsPerInput...)
	}
	if r.rejected > 0 {
		rep.RejectedPerInput = append([]uint64(nil), r.rejectedPerInput...)
	}
	for id := 0; id < r.stats.Len(); id++ {
		fl := r.stats.At(id)
		mp := &fl.pps
		if !mp.seen() {
			continue // seen only by the shadow: not a PPS flow
		}
		if mp.max > rep.MaxPPSDelay {
			rep.MaxPPSDelay = mp.max
		}
		j := mp.jitter()
		if j > rep.MaxPPSJitter {
			rep.MaxPPSJitter = j
		}
		if ms := &fl.sh; ms.seen() {
			if rel := j - ms.jitter(); rel > rep.RDJ {
				rep.RDJ = rel
			}
			if ms.max > rep.MaxShadowDelay {
				rep.MaxShadowDelay = ms.max
			}
		}
	}
	return rep
}

// PercentileTable renders the delay-attribution percentile block as an
// aligned table, one row per component — the format behind the -percentiles
// flag of ppsim sim and ppsim diag, and the congestion example.
func (rep Report) PercentileTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s %8s %8s %8s %8s %8s\n",
		"component", "n", "mean", "min", "p50", "p99", "p999", "max")
	row := func(name string, q obs.Quantiles) {
		fmt.Fprintf(&b, "%-12s %10d %10.2f %8d %8d %8d %8d %8d\n",
			name, q.N, q.Mean, q.Min, q.P50, q.P99, q.P999, q.Max)
	}
	p := rep.Percentiles
	row("rqd", p.RQD)
	row("demux", p.Demux)
	row("plane", p.Plane)
	row("reseq", p.Reseq)
	row("total", p.Total)
	row("interdep", p.Gap)
	return b.String()
}

// String renders the headline numbers.
func (rep Report) String() string {
	s := fmt.Sprintf("cells=%d flows=%d maxRQD=%d meanRQD=%.2f p99RQD=%d RDJ=%d maxDelay(pps=%d shadow=%d)",
		rep.Cells, rep.Flows, rep.MaxRQD, rep.MeanRQD, rep.P99RQD, rep.RDJ, rep.MaxPPSDelay, rep.MaxShadowDelay)
	if rep.Drops > 0 {
		s += fmt.Sprintf(" drops=%d", rep.Drops)
	}
	// Admission line only when a policy actually refused something, so
	// always-admit output stays byte-identical to the pre-admission format.
	if rep.Rejected > 0 || rep.ExpiredAdmit > 0 || rep.ExpiredReseq > 0 {
		s += fmt.Sprintf(" offered=%d admitted=%d rejected=%d expired=%d onTime=%.3f",
			rep.Offered, rep.Admitted, rep.Rejected, rep.ExpiredAdmit+rep.ExpiredReseq, rep.OnTimeFraction)
	}
	return s
}
