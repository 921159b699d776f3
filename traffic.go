package ppsim

import (
	"ppsim/internal/traffic"
)

// Traffic constructors re-exported from the internal traffic package; see
// that package's documentation for the model details. All randomized
// sources take explicit seeds and are deterministic per seed.

// NewTrace returns an empty explicit arrival schedule.
func NewTrace() *Trace { return traffic.NewTrace() }

// NewBernoulli returns iid traffic on an n x n switch: each slot each input
// receives a cell with probability load, destined uniformly.
func NewBernoulli(n int, load float64, until Time, seed int64) Source {
	return traffic.NewBernoulli(n, load, until, seed)
}

// NewHotspot returns Bernoulli traffic with a fraction hotFrac of every
// input's cells aimed at the single output hot.
func NewHotspot(n int, load, hotFrac float64, hot Port, until Time, seed int64) (Source, error) {
	return traffic.NewHotspot(n, load, hotFrac, hot, until, seed)
}

// NewOnOff returns bursty on/off traffic with geometric dwell times.
func NewOnOff(n int, meanOn, meanOff float64, until Time, seed int64) (Source, error) {
	return traffic.NewOnOff(n, meanOn, meanOff, until, seed)
}

// NewPermutation returns full-rate permutation traffic (input i to
// perm[i] every slot): per-port rate exactly R with zero burstiness.
func NewPermutation(perm []Port, until Time) (Source, error) {
	return traffic.NewPermutation(perm, until)
}

// NewFlood returns traffic in which every input sends to the same output
// every slot — deliberately not leaky-bucket conformant; it creates the
// congested periods of Section 5 of the paper.
func NewFlood(n int, out Port, until Time) Source {
	return &traffic.Flood{N: n, Out: out, Until: until}
}

// NewBvN returns deterministic traffic realizing a doubly-substochastic
// rate matrix through its Birkhoff–von Neumann decomposition: smooth,
// admissible, reproducible, with burstiness bounded by the decomposition
// size. lambda[i][j] is the rate (cells/slot) from input i to output j.
func NewBvN(lambda [][]float64, until Time) (Source, error) {
	return traffic.NewBvN(lambda, until, 0)
}

// NewCBR returns constant-bit-rate traffic: one cell per flow every period
// slots.
func NewCBR(flows []Flow, period Time, until Time) Source {
	return &traffic.CBR{Flows: flows, Period: period, Until: until}
}

// Shape wraps a source with an (R=1, B) leaky-bucket regulator, delaying
// cells as needed so the offered traffic conforms to Definition 3 of the
// paper. The shaped stream is read ahead, and may run on the event core,
// only if src is; shaping a closed-loop source keeps it at its slot.
func Shape(n int, b int64, src Source) Source {
	return traffic.NewRegulator(n, b, src)
}

// WithDeadline wraps a source so every arrival carries an absolute departure
// deadline of its arrival slot plus rel (rel >= 1). Pair it with a
// deadline-drop AdmissionSpec to shed late cells; without one, deadlines
// only feed the on-time-fraction accounting. Like Shape, it is read ahead
// exactly when src is.
func WithDeadline(src Source, rel Time) Source {
	return traffic.WithDeadline(src, rel)
}

// MeasureBurstiness replays a finite source and returns the smallest B for
// which it is (R=1, B) leaky-bucket conformant.
func MeasureBurstiness(n int, src Source) (int64, error) {
	return traffic.MeasureSource(n, src)
}

// WindowBurstiness returns the maximum excess (cells - tau*R) over all
// windows of exactly tau slots, per output-port — the Proposition 15
// diagnostic: bounded in tau for leaky-bucket traffic, growing without
// bound for congestion traffic.
func WindowBurstiness(n int, src Source, tau Time) (int64, error) {
	return traffic.WindowBurstiness(n, src, tau)
}

// Concat composes finite sources sequentially with idle gaps into one
// trace; see traffic.NewConcat.
func Concat(parts ...ConcatPart) (Source, error) {
	ps := make([]traffic.Part, len(parts))
	for i, p := range parts {
		ps[i] = traffic.Part{Source: p.Source, GapAfter: p.GapAfter}
	}
	return traffic.NewConcat(ps...)
}

// ConcatPart is one stage of a Concat.
type ConcatPart struct {
	Source   Source
	GapAfter Time
}
