package demux

import (
	"fmt"

	"ppsim/internal/cell"
)

// LocalLeastLoaded is a fully-distributed algorithm that balances using the
// only state a demultiplexor can legally count: its own past dispatches.
// For every arriving cell it picks, among planes with a free input gate,
// the plane to which this input has sent the fewest cells for this
// destination (tie: lowest plane index).
//
// It looks smarter than round-robin, and on smooth traffic it is — but it
// remains a deterministic fully-distributed state machine, so Theorem 6's
// steering adversary aligns it exactly like the others (experiment E17's
// universality check). No amount of local cleverness escapes the
// Omega((R/r - 1) N) bound; only global information does.
//
// Selection is O(1) amortized per cell: the per-flow counters live in a
// planeBuckets structure whose bucket scan reproduces the lowest-index
// argmin of an O(K) counter scan exactly (DESIGN.md §15), and the free-gate
// set is one Env.FreeGateMask call.
type LocalLeastLoaded struct {
	sendScratch
	env    Env
	counts map[cell.Flow]*planeBuckets
}

// NewLocalLeastLoaded returns the algorithm. It returns an error if K < r'.
func NewLocalLeastLoaded(env Env) (*LocalLeastLoaded, error) {
	if int64(env.Planes()) < env.RPrime() {
		return nil, fmt.Errorf("demux: least-loaded needs K >= r' (K=%d, r'=%d)", env.Planes(), env.RPrime())
	}
	return &LocalLeastLoaded{env: env, counts: make(map[cell.Flow]*planeBuckets)}, nil
}

// Name implements Algorithm.
func (a *LocalLeastLoaded) Name() string { return "local-least-loaded" }

// Slot implements Algorithm.
func (a *LocalLeastLoaded) Slot(t cell.Time, arrivals []cell.Cell) ([]Send, error) {
	if len(arrivals) == 0 {
		return nil, nil
	}
	sends := a.take()
	for _, c := range arrivals {
		pb := a.flowBuckets(c.Flow)
		best := pb.argmin(a.env.FreeGateMask(c.Flow.In, t))
		if best == cell.NoPlane {
			return nil, fmt.Errorf("demux: least-loaded input %d has no free gate at slot %d", c.Flow.In, t)
		}
		pb.inc(best)
		sends = append(sends, Send{Cell: c, Plane: best})
	}
	return a.keep(sends), nil
}

func (a *LocalLeastLoaded) flowBuckets(f cell.Flow) *planeBuckets {
	pb := a.counts[f]
	if pb == nil {
		pb = newPlaneBuckets(a.env.Planes())
		a.counts[f] = pb
	}
	return pb
}

// Buffered implements Algorithm (bufferless).
func (a *LocalLeastLoaded) Buffered(cell.Port) int { return 0 }

// WouldChoose implements Prober: the least-loaded plane for the flow
// assuming all gates free.
func (a *LocalLeastLoaded) WouldChoose(in, out cell.Port) (cell.Plane, bool) {
	return a.flowBuckets(cell.Flow{In: in, Out: out}).argmin(^uint64(0)), true
}

// IdleInvariant certifies the idle-elision capability: the per-flow counts
// change only on dispatch.
func (a *LocalLeastLoaded) IdleInvariant() bool { return true }
