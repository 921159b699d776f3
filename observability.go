package ppsim

import (
	"io"

	"ppsim/internal/cell"
	"ppsim/internal/obs"
)

// Public names for the observability layer (internal/obs). Probes and
// tracers plug into Options.Probes / Options.Tracer; see the README's
// "Observability" section for the probe list and the JSONL trace schema.
type (
	// Probe samples the switch once per slot (after the mux phase) into
	// ring-buffered time series; StandardProbes builds the full set. Each
	// probe covers the idle slots the event core elides in closed form, so
	// its series are the same on every engine.
	Probe = obs.Probe
	// Series is one named, ring-buffered time series with stride
	// decimation.
	Series = obs.Series
	// SeriesPoint is one (slot, value) sample.
	SeriesPoint = obs.Point
	// Tracer receives the structured event stream from the fabric.
	Tracer = obs.Tracer
	// TraceEvent is one structured trace record.
	TraceEvent = obs.Event
	// TraceSink consumes trace events (ring, JSONL, or null).
	TraceSink = obs.Sink
	// RingSink retains the last N trace events in memory.
	RingSink = obs.RingSink
	// Telemetry is the cross-run aggregate: live per-slot gauges, streaming
	// delay histograms and the summed totals of finished runs; plug one into
	// Options.Telemetry, or install it process-wide with SetGlobalTelemetry,
	// and snapshot it mid-run.
	Telemetry = obs.Telemetry
	// TelemetrySnapshot is the frozen live state (the /telemetry JSON
	// schema of ppsim exp).
	TelemetrySnapshot = obs.TelemetrySnapshot
	// Quantiles is the headline summary of one streaming delay histogram:
	// exact n/mean/min/max plus log-bucketed p50/p99/p999.
	Quantiles = obs.Quantiles
	// DelayQuantiles is the per-component percentile block carried by
	// Report.Percentiles and telemetry snapshots: RQD, the demux/plane/
	// resequencer decomposition, total delay, and inter-departure gap.
	DelayQuantiles = obs.DelayQuantiles
)

// StandardProbes returns the full probe set for an N-port, K-plane switch:
// per-plane backlog, cumulative peak plane queue, input buffer depths, mux
// pull rate, departing-front RQD, demux dispatch imbalance, the
// PPS-vs-shadow in-flight populations, the fault degradation state, and the
// admission boundary counters. stride decimates sampling (1 = every slot);
// capacity bounds each series' ring (<= 0 uses the default).
func StandardProbes(n, k int, stride Time, capacity int) []*Probe {
	return obs.StandardProbes(n, k, cell.Time(stride), capacity)
}

// NewJSONLTracer returns a tracer writing one JSON object per event to w.
func NewJSONLTracer(w io.Writer) *Tracer {
	return obs.NewTracer(obs.NewJSONLSink(w))
}

// NewRingTracer returns a tracer retaining the last capacity events, plus
// the ring to read them back from.
func NewRingTracer(capacity int) (*Tracer, *RingSink) {
	ring := obs.NewRingSink(capacity)
	return obs.NewTracer(ring), ring
}

// NewTelemetry returns an empty live-telemetry aggregator.
func NewTelemetry() *Telemetry { return obs.NewTelemetry() }

// SetGlobalTelemetry installs t as the process-wide default aggregator
// (nil uninstalls): runs whose Options.Telemetry is nil report into it.
func SetGlobalTelemetry(t *Telemetry) { obs.SetGlobalTelemetry(t) }

// GlobalTelemetry returns the process-wide aggregator, or nil.
func GlobalTelemetry() *Telemetry { return obs.GlobalTelemetry() }

// WriteSeriesCSV streams series in long format ("series,slot,value").
func WriteSeriesCSV(w io.Writer, series []*Series) error {
	return obs.WriteSeriesCSV(w, series)
}

// WriteSeriesJSON writes series as a JSON array of
// {"series": name, "points": [[slot, value], ...]} objects.
func WriteSeriesJSON(w io.Writer, series []*Series) error {
	return obs.WriteSeriesJSON(w, series)
}
