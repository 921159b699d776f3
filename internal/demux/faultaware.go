package demux

import (
	"fmt"
	"math/bits"

	"ppsim/internal/cell"
)

// PlaneHealth is an optional capability of an Env: environments that track
// center-stage failures report per-plane liveness through it. The fabric's
// env implements it; test fakes that never fail planes need not.
//
// Liveness is local information in the paper's sense: a demultiplexor
// observes its own line card's loss-of-signal toward a dead plane, so even
// fully-distributed algorithms may use it (Section 3 assumes exactly this
// when arguing an unpartitioned PPS degrades to K-1 planes).
type PlaneHealth interface {
	// PlaneUp reports whether plane k is currently in service.
	PlaneUp(k cell.Plane) bool
}

// neverFree is the gate-free time a masked environment reports for a failed
// plane: far enough in the future that no run reaches it, so every
// algorithm that consults InputGateFreeAt — all of them do, via pickFree or
// directly — treats the plane as permanently busy and routes around it.
const neverFree = cell.Time(1) << 62

// maskedEnv hides failed planes from the wrapped algorithm by reporting
// their input gates busy forever. All other environment queries pass
// through, so the inner algorithm's information discipline is unchanged.
type maskedEnv struct {
	Env
	health PlaneHealth
}

func (m maskedEnv) InputGateFreeAt(in cell.Port, k cell.Plane) cell.Time {
	if !m.health.PlaneUp(k) {
		return neverFree
	}
	return m.Env.InputGateFreeAt(in, k)
}

// FreeGateMask composes the wrapper with the O(1) selection structures: the
// inner environment's mask with failed planes' bits cleared.
func (m maskedEnv) FreeGateMask(in cell.Port, t cell.Time) uint64 {
	mask := m.Env.FreeGateMask(in, t)
	for b := mask; b != 0; b &= b - 1 {
		if !m.health.PlaneUp(cell.Plane(bits.TrailingZeros64(b))) {
			mask &^= b & -b
		}
	}
	return mask
}

// FaultAware wraps any demultiplexing algorithm with failure-aware dispatch:
// the inner algorithm is constructed against a masked environment in which
// failed planes' input gates never free up, so its own candidate selection
// skips them while still honoring the input constraint on live planes. When
// a plane recovers, its real gate state shows through again and the plane
// rejoins the candidate set.
//
// The wrapper changes which planes look available, not what the algorithm
// does with them — a wrapped round-robin is still round-robin over the live
// planes, and a wrapped CPA still minimizes over the live planes' state.
type FaultAware struct {
	inner Algorithm
	name  string
}

// NewFaultAware builds mk's algorithm against a plane-health-masked view of
// env. It errors when env does not expose PlaneHealth (the fabric's
// environment always does).
func NewFaultAware(env Env, mk func(Env) (Algorithm, error)) (Algorithm, error) {
	h, ok := env.(PlaneHealth)
	if !ok {
		return nil, fmt.Errorf("demux: faultaware needs an environment with plane health (got %T)", env)
	}
	inner, err := mk(maskedEnv{Env: env, health: h})
	if err != nil {
		return nil, err
	}
	return &FaultAware{inner: inner, name: "faultaware(" + inner.Name() + ")"}, nil
}

// Name implements Algorithm.
func (f *FaultAware) Name() string { return f.name }

// Slot implements Algorithm.
func (f *FaultAware) Slot(t cell.Time, arrivals []cell.Cell) ([]Send, error) {
	return f.inner.Slot(t, arrivals)
}

// Buffered implements Algorithm.
func (f *FaultAware) Buffered(in cell.Port) int { return f.inner.Buffered(in) }

// WouldChoose implements Prober when the inner algorithm does; ok is false
// otherwise.
func (f *FaultAware) WouldChoose(in, out cell.Port) (cell.Plane, bool) {
	if p, ok := f.inner.(Prober); ok {
		return p.WouldChoose(in, out)
	}
	return cell.NoPlane, false
}

// IdleInvariant delegates the idle-elision capability to the wrapped
// algorithm: the mask itself holds no per-slot state.
func (f *FaultAware) IdleInvariant() bool {
	ii, ok := f.inner.(IdleInvariant)
	return ok && ii.IdleInvariant()
}
