package obs

import (
	"fmt"

	"ppsim/internal/cell"
)

// SlotView is the per-slot window the harness opens onto the matched
// execution for probes to sample. All values reflect the state *after* the
// mux phase of the slot (pulls and departures applied), so series align
// with the paper's departure-time accounting. Index arguments are plain
// ints in [0, Planes()) / [0, Ports()).
type SlotView interface {
	// Slot is the slot just executed.
	Slot() cell.Time
	// Ports returns N, Planes returns K.
	Ports() int
	Planes() int
	// PlaneBacklog is the number of cells queued in plane k (all outputs).
	PlaneBacklog(k int) int
	// PlanePeak is the largest per-output backlog plane k has ever held.
	PlanePeak(k int) int
	// InputDepth is the number of arrived-but-undispatched cells at input i.
	InputDepth(i int) int
	// OutputBuffered is the occupancy of output j's resequencing buffer.
	OutputBuffered(j int) int
	// OutputPulls is the cumulative number of cells output j's multiplexor
	// has pulled from the planes.
	OutputPulls(j int) int64
	// DispatchedTo is the cumulative number of cells dispatched into plane k.
	DispatchedTo(k int) uint64
	// PPSInFlight and ShadowInFlight are the cells inside each switch.
	PPSInFlight() int
	ShadowInFlight() int
	// FrontRQD is the largest relative queuing delay among cells that
	// departed the PPS this slot and whose shadow departure is known; ok is
	// false when no such cell departed.
	FrontRQD() (int64, bool)
	// LivePlanes is the number of planes currently in service (K minus
	// failed planes).
	LivePlanes() int
	// DroppedTotal is the cumulative number of cells lost to failed planes
	// under the DropCount fault policy (always 0 under Abort).
	DroppedTotal() uint64
	// AdmittedTotal, RejectedTotal and ExpiredTotal are the cumulative
	// admission counters: arrivals let into the switch, arrivals refused by
	// a token bucket, and deadline expiries (at admission plus at egress).
	// Without an admission policy AdmittedTotal still counts every arrival
	// and the other two stay 0.
	AdmittedTotal() uint64
	RejectedTotal() uint64
	ExpiredTotal() uint64
}

// Probe samples a SlotView once per slot into one or more Series. Probes
// are driven from the run's goroutine; they must not be shared between
// concurrent runs.
type Probe interface {
	// Name identifies the probe (for flag parsing and reports).
	Name() string
	// Sample reads the view and appends to the probe's series.
	Sample(v SlotView)
	// SampleIdleSpan covers the slots [from, to) the event core's idle jump
	// elides. It must leave the probe's series byte-identical to calling
	// Sample once per slot of the span under the quiescence preconditions:
	// no arrivals, no cells in flight, no departures, no fault events — so
	// every quantity a probe reads from the view is constant across the
	// span.
	SampleIdleSpan(v SlotView, from, to cell.Time)
	// Series exposes the sampled series for export.
	Series() []*Series
}

// PlaneBacklogProbe samples every plane's total backlog into one series per
// plane, named "plane_backlog[k]" — the trajectory behind Theorem 6's
// divergence argument.
type PlaneBacklogProbe struct{ s []*Series }

// NewPlaneBacklogProbe returns a probe over k planes.
func NewPlaneBacklogProbe(k int, stride cell.Time, capacity int) *PlaneBacklogProbe {
	p := &PlaneBacklogProbe{}
	for i := 0; i < k; i++ {
		p.s = append(p.s, NewSeries(fmt.Sprintf("plane_backlog[%d]", i), stride, capacity))
	}
	return p
}

// Name implements Probe.
func (p *PlaneBacklogProbe) Name() string { return "plane-backlog" }

// Sample implements Probe.
func (p *PlaneBacklogProbe) Sample(v SlotView) {
	t := v.Slot()
	for i, s := range p.s {
		s.Observe(t, float64(v.PlaneBacklog(i)))
	}
}

// Series implements Probe.
func (p *PlaneBacklogProbe) Series() []*Series { return p.s }

// PeakPlaneQueueProbe samples max over planes of the cumulative per-output
// backlog peak ("plane_peak_queue"); its final sample equals the run's
// Result.PeakPlaneQueue.
type PeakPlaneQueueProbe struct{ s *Series }

// NewPeakPlaneQueueProbe returns the probe.
func NewPeakPlaneQueueProbe(stride cell.Time, capacity int) *PeakPlaneQueueProbe {
	return &PeakPlaneQueueProbe{s: NewSeries("plane_peak_queue", stride, capacity)}
}

// Name implements Probe.
func (p *PeakPlaneQueueProbe) Name() string { return "plane-peak-queue" }

// Sample implements Probe.
func (p *PeakPlaneQueueProbe) Sample(v SlotView) {
	peak := 0
	for k := 0; k < v.Planes(); k++ {
		if q := v.PlanePeak(k); q > peak {
			peak = q
		}
	}
	p.s.Observe(v.Slot(), float64(peak))
}

// Series implements Probe.
func (p *PeakPlaneQueueProbe) Series() []*Series { return p.s.asList() }

// InputDepthProbe samples the input-port buffers: total occupancy
// ("input_depth_total") and the deepest buffer ("input_depth_max").
type InputDepthProbe struct{ total, max *Series }

// NewInputDepthProbe returns the probe.
func NewInputDepthProbe(stride cell.Time, capacity int) *InputDepthProbe {
	return &InputDepthProbe{
		total: NewSeries("input_depth_total", stride, capacity),
		max:   NewSeries("input_depth_max", stride, capacity),
	}
}

// Name implements Probe.
func (p *InputDepthProbe) Name() string { return "input-depth" }

// Sample implements Probe.
func (p *InputDepthProbe) Sample(v SlotView) {
	total, max := 0, 0
	for i := 0; i < v.Ports(); i++ {
		d := v.InputDepth(i)
		total += d
		if d > max {
			max = d
		}
	}
	t := v.Slot()
	p.total.Observe(t, float64(total))
	p.max.Observe(t, float64(max))
}

// Series implements Probe.
func (p *InputDepthProbe) Series() []*Series { return []*Series{p.total, p.max} }

// MuxPullProbe samples "mux_pulls": the number of cells the output
// multiplexors pulled from the planes since the previous sample (a rate,
// so decimated samples cover the whole stride window).
type MuxPullProbe struct {
	s    *Series
	last int64
}

// NewMuxPullProbe returns the probe.
func NewMuxPullProbe(stride cell.Time, capacity int) *MuxPullProbe {
	return &MuxPullProbe{s: NewSeries("mux_pulls", stride, capacity)}
}

// Name implements Probe.
func (p *MuxPullProbe) Name() string { return "mux-pulls" }

// Sample implements Probe.
func (p *MuxPullProbe) Sample(v SlotView) {
	var cum int64
	for j := 0; j < v.Ports(); j++ {
		cum += v.OutputPulls(j)
	}
	// Advance last only when the point was actually recorded (decimated or
	// same-slot deduped observations report false), so each recorded point
	// covers exactly the window since the previous recorded one.
	if p.s.Observe(v.Slot(), float64(cum-p.last)) {
		p.last = cum
	}
}

// Series implements Probe.
func (p *MuxPullProbe) Series() []*Series { return p.s.asList() }

// FrontRQDProbe samples "front_rqd": the instantaneous relative queuing
// delay of the departing front — the worst RQD among the cells that left
// the PPS this slot. Slots with no (matched) departure record no point.
type FrontRQDProbe struct{ s *Series }

// NewFrontRQDProbe returns the probe.
func NewFrontRQDProbe(stride cell.Time, capacity int) *FrontRQDProbe {
	return &FrontRQDProbe{s: NewSeries("front_rqd", stride, capacity)}
}

// Name implements Probe.
func (p *FrontRQDProbe) Name() string { return "front-rqd" }

// Sample implements Probe.
func (p *FrontRQDProbe) Sample(v SlotView) {
	if rqd, ok := v.FrontRQD(); ok {
		p.s.Observe(v.Slot(), float64(rqd))
	}
}

// Series implements Probe.
func (p *FrontRQDProbe) Series() []*Series { return p.s.asList() }

// DispatchImbalanceProbe samples "dispatch_imbalance": how far the
// most-loaded plane's cumulative dispatch count sits above the round-robin
// ideal (total/K). Zero means perfectly balanced dispatch; the steering
// adversary drives it toward (1 - 1/K) * total.
type DispatchImbalanceProbe struct{ s *Series }

// NewDispatchImbalanceProbe returns the probe.
func NewDispatchImbalanceProbe(stride cell.Time, capacity int) *DispatchImbalanceProbe {
	return &DispatchImbalanceProbe{s: NewSeries("dispatch_imbalance", stride, capacity)}
}

// Name implements Probe.
func (p *DispatchImbalanceProbe) Name() string { return "dispatch-imbalance" }

// Sample implements Probe.
func (p *DispatchImbalanceProbe) Sample(v SlotView) {
	var total, max uint64
	k := v.Planes()
	for i := 0; i < k; i++ {
		d := v.DispatchedTo(i)
		total += d
		if d > max {
			max = d
		}
	}
	ideal := float64(total) / float64(k)
	p.s.Observe(v.Slot(), float64(max)-ideal)
}

// Series implements Probe.
func (p *DispatchImbalanceProbe) Series() []*Series { return p.s.asList() }

// InFlightProbe samples the in-switch populations of the PPS
// ("pps_in_flight") and the shadow reference switch ("shadow_in_flight");
// their gap is the backlog the PPS accumulates beyond the ideal switch.
type InFlightProbe struct{ pps, sh *Series }

// NewInFlightProbe returns the probe.
func NewInFlightProbe(stride cell.Time, capacity int) *InFlightProbe {
	return &InFlightProbe{
		pps: NewSeries("pps_in_flight", stride, capacity),
		sh:  NewSeries("shadow_in_flight", stride, capacity),
	}
}

// Name implements Probe.
func (p *InFlightProbe) Name() string { return "in-flight" }

// Sample implements Probe.
func (p *InFlightProbe) Sample(v SlotView) {
	t := v.Slot()
	p.pps.Observe(t, float64(v.PPSInFlight()))
	p.sh.Observe(t, float64(v.ShadowInFlight()))
}

// Series implements Probe.
func (p *InFlightProbe) Series() []*Series { return []*Series{p.pps, p.sh} }

// FaultProbe samples the degradation state: "live_planes" (planes in
// service) and "drops_total" (cumulative cells lost to failed planes under
// the DropCount policy). Fault-free runs record flat K and 0 lines; under a
// schedule the series make degradation epochs visible in -series output.
type FaultProbe struct{ live, drops *Series }

// NewFaultProbe returns the probe.
func NewFaultProbe(stride cell.Time, capacity int) *FaultProbe {
	return &FaultProbe{
		live:  NewSeries("live_planes", stride, capacity),
		drops: NewSeries("drops_total", stride, capacity),
	}
}

// Name implements Probe.
func (p *FaultProbe) Name() string { return "faults" }

// Sample implements Probe.
func (p *FaultProbe) Sample(v SlotView) {
	t := v.Slot()
	p.live.Observe(t, float64(v.LivePlanes()))
	p.drops.Observe(t, float64(v.DroppedTotal()))
}

// Series implements Probe.
func (p *FaultProbe) Series() []*Series { return []*Series{p.live, p.drops} }

// SampleIdleSpan implements Probe. Backlogs are constant (in an
// idle span they are in fact zero, but the probe only relies on constancy).
func (p *PlaneBacklogProbe) SampleIdleSpan(v SlotView, from, to cell.Time) {
	for i, s := range p.s {
		s.ObserveSpan(from, to, float64(v.PlaneBacklog(i)))
	}
}

// SampleIdleSpan implements Probe. The peak is cumulative, hence
// constant while nothing moves.
func (p *PeakPlaneQueueProbe) SampleIdleSpan(v SlotView, from, to cell.Time) {
	peak := 0
	for k := 0; k < v.Planes(); k++ {
		if q := v.PlanePeak(k); q > peak {
			peak = q
		}
	}
	p.s.ObserveSpan(from, to, float64(peak))
}

// SampleIdleSpan implements Probe.
func (p *InputDepthProbe) SampleIdleSpan(v SlotView, from, to cell.Time) {
	total, max := 0, 0
	for i := 0; i < v.Ports(); i++ {
		d := v.InputDepth(i)
		total += d
		if d > max {
			max = d
		}
	}
	p.total.ObserveSpan(from, to, float64(total))
	p.max.ObserveSpan(from, to, float64(max))
}

// SampleIdleSpan implements Probe. The cumulative pull count is
// frozen across an idle span, so the first recorded point flushes the window
// since the previous sample and every later point in the span records a zero
// rate — replayed per-slot only until that first recorded point (at most one
// stride), then in closed form. A span too short to reach an aligned slot
// records nothing and leaves the window unconsumed (last advances only on a
// recorded point), so the next real sample still flushes the full window.
// TestMuxPullProbeIdleSpanMatchesPerSlot pins both halves of this contract
// against a per-slot twin.
func (p *MuxPullProbe) SampleIdleSpan(v SlotView, from, to cell.Time) {
	var cum int64
	for j := 0; j < v.Ports(); j++ {
		cum += v.OutputPulls(j)
	}
	for t := from; t < to; t++ {
		if p.s.Observe(t, float64(cum-p.last)) {
			p.last = cum
			p.s.ObserveSpan(t+1, to, 0)
			return
		}
	}
}

// SampleIdleSpan implements Probe. No cell departs during an idle
// span, so the per-slot Sample would record nothing: a no-op.
func (p *FrontRQDProbe) SampleIdleSpan(SlotView, cell.Time, cell.Time) {}

// SampleIdleSpan implements Probe. Dispatch counters are
// cumulative, hence constant while nothing moves.
func (p *DispatchImbalanceProbe) SampleIdleSpan(v SlotView, from, to cell.Time) {
	var total, max uint64
	k := v.Planes()
	for i := 0; i < k; i++ {
		d := v.DispatchedTo(i)
		total += d
		if d > max {
			max = d
		}
	}
	ideal := float64(total) / float64(k)
	p.s.ObserveSpan(from, to, float64(max)-ideal)
}

// SampleIdleSpan implements Probe. Both switches are empty (and
// stay empty) across an idle span.
func (p *InFlightProbe) SampleIdleSpan(v SlotView, from, to cell.Time) {
	p.pps.ObserveSpan(from, to, float64(v.PPSInFlight()))
	p.sh.ObserveSpan(from, to, float64(v.ShadowInFlight()))
}

// SampleIdleSpan implements Probe. A fault event due inside the
// interval truncates the jump, so the degradation state is constant here.
func (p *FaultProbe) SampleIdleSpan(v SlotView, from, to cell.Time) {
	p.live.ObserveSpan(from, to, float64(v.LivePlanes()))
	p.drops.ObserveSpan(from, to, float64(v.DroppedTotal()))
}

// AdmissionProbe samples the admission boundary: "admitted_total",
// "rejected_total" and "expired_total" cumulative counters. Runs without a
// policy record a straight arrival count and flat zero lines; under
// token-bucket or deadline-drop admission the series show when overload is
// being shed.
type AdmissionProbe struct{ admitted, rejected, expired *Series }

// NewAdmissionProbe returns the probe.
func NewAdmissionProbe(stride cell.Time, capacity int) *AdmissionProbe {
	return &AdmissionProbe{
		admitted: NewSeries("admitted_total", stride, capacity),
		rejected: NewSeries("rejected_total", stride, capacity),
		expired:  NewSeries("expired_total", stride, capacity),
	}
}

// Name implements Probe.
func (p *AdmissionProbe) Name() string { return "admission" }

// Sample implements Probe.
func (p *AdmissionProbe) Sample(v SlotView) {
	t := v.Slot()
	p.admitted.Observe(t, float64(v.AdmittedTotal()))
	p.rejected.Observe(t, float64(v.RejectedTotal()))
	p.expired.Observe(t, float64(v.ExpiredTotal()))
}

// Series implements Probe.
func (p *AdmissionProbe) Series() []*Series { return []*Series{p.admitted, p.rejected, p.expired} }

// SampleIdleSpan implements Probe. An idle span has no arrivals,
// hence no admission decisions: all three cumulative counters are constant.
func (p *AdmissionProbe) SampleIdleSpan(v SlotView, from, to cell.Time) {
	p.admitted.ObserveSpan(from, to, float64(v.AdmittedTotal()))
	p.rejected.ObserveSpan(from, to, float64(v.RejectedTotal()))
	p.expired.ObserveSpan(from, to, float64(v.ExpiredTotal()))
}

// StandardProbes returns the full probe set for an N-port, K-plane switch:
// per-plane backlog, cumulative peak plane queue, input buffer depths, mux
// pull rate, departing-front RQD, demux dispatch imbalance, the
// PPS-vs-shadow in-flight populations, the fault degradation state, and the
// admission boundary counters.
func StandardProbes(n, k int, stride cell.Time, capacity int) []Probe {
	return []Probe{
		NewPlaneBacklogProbe(k, stride, capacity),
		NewPeakPlaneQueueProbe(stride, capacity),
		NewInputDepthProbe(stride, capacity),
		NewMuxPullProbe(stride, capacity),
		NewFrontRQDProbe(stride, capacity),
		NewDispatchImbalanceProbe(stride, capacity),
		NewInFlightProbe(stride, capacity),
		NewFaultProbe(stride, capacity),
		NewAdmissionProbe(stride, capacity),
	}
}

// CollectSeries flattens the probes' series in probe order.
func CollectSeries(probes []Probe) []*Series {
	var out []*Series
	for _, p := range probes {
		out = append(out, p.Series()...)
	}
	return out
}

func (s *Series) asList() []*Series { return []*Series{s} }
