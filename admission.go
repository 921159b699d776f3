package ppsim

import "ppsim/internal/admission"

// Admission control: a policy layer evaluated in front of the demultiplexors
// that decides, per offered arrival, whether the cell enters the switch at
// all. Attach a spec via Options.Admission; the zero/nil spec is always-admit
// and byte-identical to no admission configuration. Token buckets use exact
// integer arithmetic with lazy closed-form refill, so decisions are
// deterministic and identical across the serial, stage-parallel and
// event-driven engines. Deadline-drop composes with
// WithDeadline-wrapped traffic: arrivals already past their deadline are
// refused at admission, and deliveries that miss it are reclassified as
// expired at egress. Result/Report carry the accounting (offered, admitted,
// rejected, expired, goodput, on-time fraction); every offered cell is
// conserved across those counters.
type (
	// AdmissionSpec is a declarative admission policy (per-input and
	// aggregate token buckets plus deadline enforcement). Build it directly,
	// or via ParseAdmissionSpec; a built spec is immutable and may be shared
	// across runs.
	AdmissionSpec = admission.Spec
)

// ParseAdmissionSpec parses the comma-separated admission spec grammar of
// the -admission CLI flags, e.g. "rate:1/2,burst:16,agg-rate:8,agg-burst:64,deadline".
// "" and "always" yield the always-admit zero spec.
func ParseAdmissionSpec(spec string) (*AdmissionSpec, error) { return admission.ParseSpec(spec) }
