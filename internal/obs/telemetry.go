package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Telemetry is the one cross-run aggregate, served to external observers by
// ppsexp's /telemetry endpoint. The harness ticks the per-slot gauges with
// atomic stores — the steady-state slot path stays lock- and allocation-free
// — and, under a mutex, folds its delay histograms into the cross-run set at
// a coarse flush cadence (every telemetry flush stride slots and at run end)
// and its end-of-run totals once per successful run. Snapshot may be called
// concurrently from any goroutine mid-run.
//
// A nil *Telemetry is valid and inert, so the harness threads it without
// nil checks at every site.
type Telemetry struct {
	runsStarted  atomic.Int64
	runsFinished atomic.Int64
	runsFailed   atomic.Int64
	slot         atomic.Int64
	inFlight     atomic.Int64
	matched      atomic.Int64
	dropped      atomic.Int64
	admitted     atomic.Int64
	rejected     atomic.Int64
	expired      atomic.Int64

	mu     sync.Mutex
	delays *DelaySet
	totals runTotals
}

// runTotals is the cross-run sum of successful runs' end-of-run results, the
// "totals" block of TelemetrySnapshot. The largest RQD of any run is already
// the snapshot's delay.rqd.max.
type runTotals struct {
	// Slots sums Result.Slots; Cells the delivered cells (Report.Cells).
	Slots int64 `json:"slots"`
	Cells int64 `json:"cells"`
	// Drops, Rejected and Expired sum the cells lost to failed planes,
	// refused by a token bucket, and expired (admission + egress).
	Drops    int64 `json:"drops"`
	Rejected int64 `json:"rejected"`
	Expired  int64 `json:"expired"`
	// TraceEvents sums the events emitted to the runs' tracers.
	TraceEvents int64 `json:"trace_events"`
	// PeakPlaneQueue is the largest Result.PeakPlaneQueue of any run.
	PeakPlaneQueue int64 `json:"peak_plane_queue"`
}

// NewTelemetry returns an empty telemetry aggregator.
func NewTelemetry() *Telemetry {
	return &Telemetry{delays: NewDelaySet()}
}

// RunStarted marks one run as live. Safe on nil.
func (t *Telemetry) RunStarted() {
	if t == nil {
		return
	}
	t.runsStarted.Add(1)
}

// RunFinished marks one run as done. A successful run (ok) folds its
// end-of-run results into the cross-run totals; a failed one is counted in
// runs_failed and its remaining arguments are ignored, so the totals stay
// successful-runs-only. Safe on nil.
func (t *Telemetry) RunFinished(ok bool, slots int64, cells, drops, rejected, expired, traceEvents uint64, peakPlaneQueue int) {
	if t == nil {
		return
	}
	if ok {
		t.mu.Lock()
		t.totals.Slots += slots
		t.totals.Cells += int64(cells)
		t.totals.Drops += int64(drops)
		t.totals.Rejected += int64(rejected)
		t.totals.Expired += int64(expired)
		t.totals.TraceEvents += int64(traceEvents)
		t.totals.PeakPlaneQueue = max(t.totals.PeakPlaneQueue, int64(peakPlaneQueue))
		t.mu.Unlock()
	} else {
		t.runsFailed.Add(1)
	}
	t.runsFinished.Add(1)
}

// Tick publishes the per-slot gauges: the slot just executed, the cells in
// flight inside the PPS, and the cumulative matched/dropped counts plus the
// admission boundary counters (admitted arrivals, token-bucket rejections,
// deadline expiries). Concurrent runs overwrite each other (last writer
// wins) — the gauges are a liveness signal, not an aggregate. Safe on nil;
// never allocates.
func (t *Telemetry) Tick(slot int64, inFlight int, matched, dropped, admitted, rejected, expired uint64) {
	if t == nil {
		return
	}
	t.slot.Store(slot)
	t.inFlight.Store(int64(inFlight))
	t.matched.Store(int64(matched))
	t.dropped.Store(int64(dropped))
	t.admitted.Store(int64(admitted))
	t.rejected.Store(int64(rejected))
	t.expired.Store(int64(expired))
}

// ObserveDelays folds the growth of a run's delay histograms since the
// previous flush into the cross-run set, then advances prev to cur
// (prev must be owned by the calling run and start empty). Incremental
// delta-merging keeps repeated flushes of the same run from double counting.
// Safe on nil.
func (t *Telemetry) ObserveDelays(cur, prev *DelaySet) {
	if t == nil || cur == nil || prev == nil {
		return
	}
	t.mu.Lock()
	t.delays.MergeDelta(cur, prev)
	t.mu.Unlock()
	prev.CopyFrom(cur)
}

// TelemetrySnapshot is the frozen live state served as JSON by ppsexp's
// /telemetry endpoint. Field order is the stable wire schema.
type TelemetrySnapshot struct {
	// RunsStarted / RunsFinished count harness runs observed; Active is
	// their difference.
	RunsStarted  int64 `json:"runs_started"`
	RunsFinished int64 `json:"runs_finished"`
	Active       int64 `json:"runs_active"`
	// Slot, InFlight, Matched and Dropped are the most recent per-slot
	// gauges (last writer wins under concurrent runs).
	Slot     int64 `json:"slot"`
	InFlight int64 `json:"in_flight"`
	Matched  int64 `json:"cells_matched"`
	Dropped  int64 `json:"cells_dropped"`
	// Admitted, Rejected and Expired are the admission boundary gauges of
	// the most recent tick: arrivals let into the switch, token-bucket
	// refusals, and deadline expiries (admission + egress).
	Admitted int64 `json:"cells_admitted"`
	Rejected int64 `json:"cells_rejected"`
	Expired  int64 `json:"cells_expired"`
	// Delay is the cross-run delay-attribution percentile block, current to
	// the last histogram flush (at most one flush stride behind the run).
	Delay DelayQuantiles `json:"delay"`
	// Totals sums the end-of-run results of every successful run: slots,
	// cells, drops, rejected, expired, trace_events, and the largest
	// peak_plane_queue.
	Totals runTotals `json:"totals"`
	// RunsFailed counts the finished runs that returned an error; their
	// delay samples are in Delay, their results are not in Totals.
	RunsFailed int64 `json:"runs_failed"`
}

// Snapshot freezes the telemetry. Safe for concurrent use; returns the zero
// snapshot on nil.
func (t *Telemetry) Snapshot() TelemetrySnapshot {
	if t == nil {
		return TelemetrySnapshot{}
	}
	snap := TelemetrySnapshot{
		RunsStarted:  t.runsStarted.Load(),
		RunsFinished: t.runsFinished.Load(),
		Slot:         t.slot.Load(),
		InFlight:     t.inFlight.Load(),
		Matched:      t.matched.Load(),
		Dropped:      t.dropped.Load(),
		Admitted:     t.admitted.Load(),
		Rejected:     t.rejected.Load(),
		Expired:      t.expired.Load(),
		RunsFailed:   t.runsFailed.Load(),
	}
	snap.Active = snap.RunsStarted - snap.RunsFinished
	t.mu.Lock()
	snap.Delay = t.delays.Quantiles()
	snap.Totals = t.totals
	t.mu.Unlock()
	return snap
}

// WriteJSON writes the current snapshot as one JSON object.
func (t *Telemetry) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(t.Snapshot())
}

// globalTelemetry is the process-wide default aggregator, following the
// expvar/pprof precedent: commands whose inner layers cannot thread an
// Options value (ppsexp's experiment suite) register one here, and the
// harness falls back to it when Options.Telemetry is nil.
var globalTelemetry atomic.Pointer[Telemetry]

// SetGlobalTelemetry installs t as the process-wide default aggregator
// (nil uninstalls).
func SetGlobalTelemetry(t *Telemetry) { globalTelemetry.Store(t) }

// GlobalTelemetry returns the process-wide aggregator, or nil.
func GlobalTelemetry() *Telemetry { return globalTelemetry.Load() }
