// Package obs is the observability layer of the simulator: log-linear delay
// histograms and the live Telemetry aggregator behind /telemetry, per-slot
// time-series probes backed by ring-buffered series with stride decimation,
// and a structured event tracer with pluggable sinks.
//
// The package is standard-library only and built so the *disabled* state
// costs nearly nothing: a nil *Tracer is a single branch per emission site
// (the fabric additionally caches Enabled so a null-sink tracer costs one
// predictable branch), and a run with no probes never touches the series
// machinery. The harness drives probes once per slot, after the mux phase
// of the slot, so sampled series align with the paper's departure-time
// accounting (see DESIGN.md §7).
package obs

import (
	"bufio"
	"encoding/json"
	"io"

	"ppsim/internal/cell"
)

// EventKind discriminates trace events.
type EventKind uint8

// Event kinds emitted by the fabric, in the order a cell experiences them.
const (
	// EvArrival: a cell arrived at input In destined to Out.
	EvArrival EventKind = iota
	// EvDispatch: the demultiplexor sent the cell to plane Plane.
	EvDispatch
	// EvPlaneEnqueue: the cell was accepted into plane Plane's queue.
	EvPlaneEnqueue
	// EvMuxPull: output Out's multiplexor pulled the cell from plane Plane.
	EvMuxPull
	// EvDepart: the cell left the switch on output Out's external line.
	EvDepart
	// EvViolation: the fabric detected a model violation; Note carries the
	// error text. The run aborts after this event.
	EvViolation
	// EvDrop: the cell was lost to a failed plane (or its loss stream)
	// under the DropCount fault policy; Plane is the plane that lost it.
	// Emitted instead of EvPlaneEnqueue for dispatch-time drops, and on its
	// own for cells a plane's backlog held when the plane failed.
	EvDrop
)

var kindNames = [...]string{
	EvArrival:      "arrival",
	EvDispatch:     "dispatch",
	EvPlaneEnqueue: "plane-enqueue",
	EvMuxPull:      "mux-pull",
	EvDepart:       "depart",
	EvViolation:    "violation",
	EvDrop:         "drop",
}

// String names the kind as it appears in JSONL traces.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one structured trace record.
type Event struct {
	// T is the slot the event happened in.
	T cell.Time
	// Kind discriminates the event.
	Kind EventKind
	// Seq is the global sequence number of the cell involved (0 for
	// violations, which are not tied to a single cell).
	Seq uint64
	// In and Out are the cell's flow endpoints.
	In  cell.Port
	Out cell.Port
	// Plane is the center-stage plane involved, or cell.NoPlane when the
	// event precedes the dispatch decision.
	Plane cell.Plane
	// Note carries the violation detail; empty for ordinary events.
	Note string
}

// Sink consumes trace events. Sinks are driven from the run's goroutine
// only; they need not be safe for concurrent use.
type Sink interface {
	Emit(Event)
}

// NullSink discards every event. A Tracer over a NullSink reports
// Enabled() == false, so instrumented code skips event construction
// entirely — this is the compiled-in-but-off configuration the overhead
// guard benchmark measures.
type NullSink struct{}

// Emit implements Sink.
func (NullSink) Emit(Event) {}

// Tracer fans events into a sink and counts them. A nil *Tracer is valid
// and inert, so callers can thread an optional tracer without nil checks
// at every site.
type Tracer struct {
	sink Sink
	n    uint64
}

// NewTracer returns a tracer draining into sink (nil means NullSink).
func NewTracer(sink Sink) *Tracer {
	if sink == nil {
		sink = NullSink{}
	}
	return &Tracer{sink: sink}
}

// Enabled reports whether emitting to this tracer can have any effect.
// Hot paths cache it and skip event construction when false.
func (t *Tracer) Enabled() bool {
	if t == nil {
		return false
	}
	_, null := t.sink.(NullSink)
	return !null
}

// Emit records one event. Safe on a nil tracer.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.n++
	t.sink.Emit(ev)
}

// Events reports how many events were emitted.
func (t *Tracer) Events() uint64 {
	if t == nil {
		return 0
	}
	return t.n
}

// Close closes the sink if it implements io.Closer (the buffered JSONL sink
// flushes here) and reports its error. Safe on a nil tracer; sinks without
// a Close are a no-op.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	if c, ok := t.sink.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// RingSink keeps the last capacity events in memory — the sink for tests
// and post-mortem inspection of bounded windows.
type RingSink struct {
	evs     []Event
	cap     int
	start   int
	dropped uint64
}

// NewRingSink returns a ring sink holding at most capacity events
// (capacity < 1 panics: a zero-size ring is a configuration error).
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		panic("obs: ring sink capacity must be positive")
	}
	return &RingSink{cap: capacity}
}

// Emit implements Sink, overwriting the oldest event when full.
func (s *RingSink) Emit(ev Event) {
	if len(s.evs) < s.cap {
		s.evs = append(s.evs, ev)
		return
	}
	s.evs[s.start] = ev
	s.start = (s.start + 1) % s.cap
	s.dropped++
}

// Events returns the retained events in emission order.
func (s *RingSink) Events() []Event {
	out := make([]Event, 0, len(s.evs))
	out = append(out, s.evs[s.start:]...)
	out = append(out, s.evs[:s.start]...)
	return out
}

// Dropped reports how many events were overwritten.
func (s *RingSink) Dropped() uint64 { return s.dropped }

// jsonEvent is the stable JSONL schema (documented in README §Observability).
type jsonEvent struct {
	T     int64  `json:"t"`
	Kind  string `json:"kind"`
	Seq   uint64 `json:"seq"`
	In    int32  `json:"in"`
	Out   int32  `json:"out"`
	Plane int32  `json:"plane"`
	Note  string `json:"note,omitempty"`
}

// JSONLSink writes one JSON object per event, newline-delimited, through an
// internal buffer — call Close (or Flush) after the run to push the tail of
// the buffer to the underlying writer. The first write error latches and
// suppresses further writes; check Err (also returned by Close) after the
// run.
type JSONLSink struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLSink returns a sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(ev Event) {
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(jsonEvent{
		T:     int64(ev.T),
		Kind:  ev.Kind.String(),
		Seq:   ev.Seq,
		In:    int32(ev.In),
		Out:   int32(ev.Out),
		Plane: int32(ev.Plane),
		Note:  ev.Note,
	})
}

// Flush pushes buffered events to the underlying writer.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.bw.Flush()
	return s.err
}

// Close implements io.Closer by flushing; the underlying writer is the
// caller's to close. Tracer.Close forwards here, so CLI flows that wrap a
// file in a JSONL tracer lose no buffered tail.
func (s *JSONLSink) Close() error { return s.Flush() }

// Err reports the first write error, if any.
func (s *JSONLSink) Err() error { return s.err }
