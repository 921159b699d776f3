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
	// OutputPulls is the cumulative number of cells output j's multiplexor
	// has pulled from the planes.
	OutputPulls(j int) int64
	// DispatchedTo is the cumulative number of cells dispatched into plane k.
	DispatchedTo(k int) uint64
	// PPSInFlight and ShadowInFlight are the cells inside each switch.
	PPSInFlight() int
	ShadowInFlight() int
	// FrontRQD is the largest relative queuing delay among this slot's PPS
	// departures whose shadow departure is known; ok is false if there is none.
	FrontRQD() (int64, bool)
	// LivePlanes is the number of planes in service (K minus failed ones).
	LivePlanes() int
	// DroppedTotal is the cumulative number of cells lost to failed planes
	// under the DropCount fault policy (always 0 under Abort).
	DroppedTotal() uint64
	// AdmittedTotal, RejectedTotal and ExpiredTotal are the cumulative
	// admission counters: arrivals let in, arrivals refused by a token
	// bucket, and deadline expiries (at admission plus at egress).
	AdmittedTotal() uint64
	RejectedTotal() uint64
	ExpiredTotal() uint64
}

// Probe samples a SlotView once per slot into one or more Series. Its read
// function fills one value per series in a single pass, or reports false
// when the slot has no sample. A level probe records the values; a rate
// probe (one series) records how far its cumulative reading moved since its
// previous recorded point. A probe must not be shared between runs.
type Probe struct {
	s    []*Series
	read func(v SlotView, dst []float64) bool
	vals []float64
	rate bool
	// last is a rate probe's cumulative reading at its latest recorded point.
	last float64
}

func newProbe(rate bool, stride cell.Time, capacity int, names []string, read func(SlotView, []float64) bool) *Probe {
	p := &Probe{s: make([]*Series, len(names)), read: read, vals: make([]float64, len(names)), rate: rate}
	for i, name := range names {
		p.s[i] = NewSeries(name, stride, capacity)
	}
	return p
}

// Series exposes the sampled series for export, in read order.
func (p *Probe) Series() []*Series { return p.s }

// Sample reads the view and appends to the probe's series.
func (p *Probe) Sample(v SlotView) {
	if !p.read(v, p.vals) {
		return
	}
	t := v.Slot()
	if p.rate {
		// last advances only on a recorded point (decimated or deduped slots
		// report false), so each point covers the window since the previous.
		if p.s[0].Observe(t, p.vals[0]-p.last) {
			p.last = p.vals[0]
		}
		return
	}
	for i, s := range p.s {
		s.Observe(t, p.vals[i])
	}
}

// SampleIdleSpan covers the slots [from, to) an idle jump elides, leaving
// every series byte-identical to calling Sample once per slot: nothing moves
// in an idle span, so every reading is frozen. A level series records its
// frozen value in closed form. A rate series replays per slot only until its
// first recorded point, which flushes the window since the previous one,
// then records zeros; a span with no aligned slot leaves the window whole.
func (p *Probe) SampleIdleSpan(v SlotView, from, to cell.Time) {
	if !p.read(v, p.vals) {
		return
	}
	if !p.rate {
		for i, s := range p.s {
			s.ObserveSpan(from, to, p.vals[i])
		}
		return
	}
	s, cum := p.s[0], p.vals[0]
	for t := from; t < to; t++ {
		if s.Observe(t, cum-p.last) {
			p.last = cum
			s.ObserveSpan(t+1, to, 0)
			return
		}
	}
}

// NewPlaneBacklogProbe samples every plane's total backlog into one series
// per plane, named "plane_backlog[k]" — the trajectory behind Theorem 6's
// divergence argument.
func NewPlaneBacklogProbe(k int, stride cell.Time, capacity int) *Probe {
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("plane_backlog[%d]", i)
	}
	return newProbe(false, stride, capacity, names, func(v SlotView, dst []float64) bool {
		for i := range dst {
			dst[i] = float64(v.PlaneBacklog(i))
		}
		return true
	})
}

// newPeakPlaneQueueProbe samples max over planes of the cumulative
// per-output backlog peak ("plane_peak_queue"); its final sample equals the
// run's Result.PeakPlaneQueue.
func newPeakPlaneQueueProbe(stride cell.Time, capacity int) *Probe {
	return newProbe(false, stride, capacity, []string{"plane_peak_queue"}, func(v SlotView, dst []float64) bool {
		peak := 0
		for k := 0; k < v.Planes(); k++ {
			peak = max(peak, v.PlanePeak(k))
		}
		dst[0] = float64(peak)
		return true
	})
}

// newInputDepthProbe samples the input-port buffers: total occupancy
// ("input_depth_total") and the deepest buffer ("input_depth_max").
func newInputDepthProbe(stride cell.Time, capacity int) *Probe {
	return newProbe(false, stride, capacity, []string{"input_depth_total", "input_depth_max"}, func(v SlotView, dst []float64) bool {
		total, deepest := 0, 0
		for i := 0; i < v.Ports(); i++ {
			d := v.InputDepth(i)
			total += d
			deepest = max(deepest, d)
		}
		dst[0], dst[1] = float64(total), float64(deepest)
		return true
	})
}

// newMuxPullProbe samples "mux_pulls": cells the output multiplexors pulled
// since the previous sample (a rate, so decimated samples miss none).
func newMuxPullProbe(stride cell.Time, capacity int) *Probe {
	return newProbe(true, stride, capacity, []string{"mux_pulls"}, func(v SlotView, dst []float64) bool {
		var cum int64
		for j := 0; j < v.Ports(); j++ {
			cum += v.OutputPulls(j)
		}
		dst[0] = float64(cum)
		return true
	})
}

// NewFrontRQDProbe samples "front_rqd": the worst RQD among the cells that
// left the PPS this slot. Slots with no (matched) departure record no point.
func NewFrontRQDProbe(stride cell.Time, capacity int) *Probe {
	return newProbe(false, stride, capacity, []string{"front_rqd"}, func(v SlotView, dst []float64) bool {
		rqd, ok := v.FrontRQD()
		dst[0] = float64(rqd)
		return ok
	})
}

// newDispatchImbalanceProbe samples "dispatch_imbalance": how far the
// most-loaded plane's cumulative dispatch count sits above the round-robin
// ideal total/K; the steering adversary drives it toward (1 - 1/K) * total.
func newDispatchImbalanceProbe(stride cell.Time, capacity int) *Probe {
	return newProbe(false, stride, capacity, []string{"dispatch_imbalance"}, func(v SlotView, dst []float64) bool {
		var total, most uint64
		k := v.Planes()
		for i := 0; i < k; i++ {
			d := v.DispatchedTo(i)
			total += d
			most = max(most, d)
		}
		dst[0] = float64(most) - float64(total)/float64(k)
		return true
	})
}

// NewInFlightProbe samples the in-switch populations of the PPS
// ("pps_in_flight") and the shadow reference switch ("shadow_in_flight");
// their gap is the backlog the PPS accumulates beyond the ideal switch.
func NewInFlightProbe(stride cell.Time, capacity int) *Probe {
	return newProbe(false, stride, capacity, []string{"pps_in_flight", "shadow_in_flight"}, func(v SlotView, dst []float64) bool {
		dst[0], dst[1] = float64(v.PPSInFlight()), float64(v.ShadowInFlight())
		return true
	})
}

// newFaultProbe samples the degradation state: "live_planes" (planes in
// service) and "drops_total" (cells lost to failed planes so far).
func newFaultProbe(stride cell.Time, capacity int) *Probe {
	return newProbe(false, stride, capacity, []string{"live_planes", "drops_total"}, func(v SlotView, dst []float64) bool {
		dst[0], dst[1] = float64(v.LivePlanes()), float64(v.DroppedTotal())
		return true
	})
}

// newAdmissionProbe samples the cumulative admission counters
// "admitted_total", "rejected_total" and "expired_total".
func newAdmissionProbe(stride cell.Time, capacity int) *Probe {
	return newProbe(false, stride, capacity, []string{"admitted_total", "rejected_total", "expired_total"}, func(v SlotView, dst []float64) bool {
		dst[0], dst[1], dst[2] = float64(v.AdmittedTotal()), float64(v.RejectedTotal()), float64(v.ExpiredTotal())
		return true
	})
}

// StandardProbes returns the full probe set for an N-port, K-plane switch,
// plane_backlog[0..K) first; README.md's "Per-slot probes" lists every series.
func StandardProbes(n, k int, stride cell.Time, capacity int) []*Probe {
	return []*Probe{
		NewPlaneBacklogProbe(k, stride, capacity),
		newPeakPlaneQueueProbe(stride, capacity),
		newInputDepthProbe(stride, capacity),
		newMuxPullProbe(stride, capacity),
		NewFrontRQDProbe(stride, capacity),
		newDispatchImbalanceProbe(stride, capacity),
		NewInFlightProbe(stride, capacity),
		newFaultProbe(stride, capacity),
		newAdmissionProbe(stride, capacity),
	}
}

// CollectSeries flattens the probes' series in probe order.
func CollectSeries(probes []*Probe) []*Series {
	var out []*Series
	for _, p := range probes {
		out = append(out, p.s...)
	}
	return out
}
