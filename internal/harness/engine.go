package harness

import (
	"fmt"

	"ppsim/internal/fabric"
	"ppsim/internal/traffic"
)

// Engine selects Drive's slot-execution core. The zero value (EngineAuto)
// picks the fastest core the run is eligible for, so callers that never set
// the field keep getting bit-identical results at the best available speed.
type Engine int

const (
	// EngineAuto runs the event-driven core when the run qualifies (serial,
	// a source read ahead in spans, no reader of the global log)
	// and the stepped core otherwise.
	EngineAuto Engine = iota
	// EngineStepped forces the naive slot-by-slot core: every slot executes
	// through fabric.Step. It is the oracle the event core is tested against.
	EngineStepped
	// EngineEvent asks for the event-driven core, degrading to stepped (with
	// Result.EngineReason set) when the run does not qualify.
	EngineEvent
)

// String returns the flag-friendly name ("auto", "stepped", "event").
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineStepped:
		return "stepped"
	case EngineEvent:
		return "event"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine maps a CLI flag value to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "auto":
		return EngineAuto, nil
	case "stepped":
		return EngineStepped, nil
	case "event":
		return EngineEvent, nil
	}
	return EngineAuto, fmt.Errorf("harness: unknown engine %q (want auto, stepped or event)", s)
}

// selectEngine resolves the requested engine against the run's eligibility
// and returns the effective engine (never EngineAuto) and — when the event
// core was wanted (requested, or implied by EngineAuto) but cannot run — the
// human-readable reason, surfaced as Result.EngineReason.
//
// Eliding idle slots needs a PPS under test (pps nil is a baseline, which
// only steps), a source the feed reads ahead in spans (a traffic.BatchSource
// that wraps only BatchSources — a per-slot source is only ever called at
// its slot, so nobody can say when its next arrival is due; when src itself
// is a BatchSource, the reason says it wraps a per-slot one) and no u-RT
// reader of the global event log (fabric.PPS.IdleInvariant); the event core additionally
// needs a fully serial run — its sparse audit and busy-output sweep assume
// single-goroutine ownership of the fabric, and the stage-parallel engine's
// barrier already prices in touching every port.
func selectEngine(pps *fabric.PPS, src traffic.Source, feed *traffic.SpanFeed, opts Options) (Engine, string) {
	if opts.Engine == EngineStepped {
		return EngineStepped, ""
	}
	_, batch := src.(traffic.BatchSource)
	switch {
	case pps == nil:
		return EngineStepped, "switch under test is not a PPS"
	case !feed.Batched() && batch:
		return EngineStepped, fmt.Sprintf("source %T wraps a source that does not implement traffic.BatchSource", src)
	case !feed.Batched():
		return EngineStepped, "source does not implement traffic.BatchSource"
	case !pps.IdleInvariant():
		return EngineStepped, "algorithm " + pps.Algorithm().Name() + " reads the global event log (u-RT): its view advances every slot"
	case opts.Workers != 0 || pps.Workers() > 0:
		return EngineStepped, "stage-parallel run: the event core is serial"
	}
	return EngineEvent, ""
}
