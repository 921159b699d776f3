package ppsim

import "ppsim/internal/faults"

// Fault injection: a declarative, deterministic schedule of center-stage
// plane failures (Section 3 of the paper argues fault tolerance is the
// reason every demultiplexor must reach every plane). Attach a schedule via
// Options.Faults; pick what a dispatch into a dead plane means via
// Options.FaultPolicy. See the faults package for the schedule builder and
// the spec grammar of ppsim sim -faults.
type (
	// FaultSchedule is a declarative fail/recover plan (plus optional
	// per-plane cell loss). Build with NewFaultSchedule or ParseFaultSpec;
	// a built schedule is immutable and may be shared across runs.
	FaultSchedule = faults.Schedule
	// FaultEvent is one scheduled plane state change.
	FaultEvent = faults.Event
	// FaultPolicy selects the degradation behavior: FaultAbort or
	// FaultDropCount.
	FaultPolicy = faults.Policy
)

// Degradation policies.
const (
	// FaultAbort keeps the formal model's no-drop semantics: a dispatch
	// into a failed plane aborts the run with an error (the default).
	FaultAbort = faults.Abort
	// FaultDropCount converts dead-plane losses into accounted drops
	// (Result.Drops, Report.DropsPerPlane/DropsPerInput); the run
	// completes and reports the degraded figures.
	FaultDropCount = faults.DropCount
)

// NewFaultSchedule returns an empty schedule; chain FailAt / RecoverAt /
// Outage / WithLoss / WithSeed to populate it.
func NewFaultSchedule() *FaultSchedule { return faults.NewSchedule() }

// ParseFaultSpec parses the comma-separated fault spec grammar of the
// -faults CLI flags, e.g. "fail:0@1000,recover:0@3000,loss:2@0.001,seed:7".
func ParseFaultSpec(spec string) (*FaultSchedule, error) { return faults.ParseSpec(spec) }

// ParseFaultPolicy maps "abort" or "dropcount" to its policy value.
func ParseFaultPolicy(s string) (FaultPolicy, error) { return faults.ParsePolicy(s) }
