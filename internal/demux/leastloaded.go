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
// set is one Env.FreeGateMask call. The structures are held by value in one
// paged cell.Column indexed by the flow's id - 1 in a cell.FlowIndex, and
// their slices are cut from fixed-size slabs; neither ever moves, so a new
// flow costs no heap object of its own and no copy of the others.
type LocalLeastLoaded struct {
	sendScratch
	env   Env
	ids   *cell.FlowIndex
	flows cell.Column[planeBuckets] // flow id - 1 → counters and buckets
	slab  []uint64                  // unused tail of the current storage slab
}

// bucketSlabFlows is how many flows' planeBuckets storage one slab holds.
const bucketSlabFlows = 64

// NewLocalLeastLoaded returns the algorithm. It returns an error if K < r'
// or K > MaxPlanes.
func NewLocalLeastLoaded(env Env) (*LocalLeastLoaded, error) {
	if env.Planes() > MaxPlanes {
		return nil, fmt.Errorf("demux: least-loaded supports at most %d planes, got K=%d", MaxPlanes, env.Planes())
	}
	if int64(env.Planes()) < env.RPrime() {
		return nil, fmt.Errorf("demux: least-loaded needs K >= r' (K=%d, r'=%d)", env.Planes(), env.RPrime())
	}
	n := env.Ports()
	return &LocalLeastLoaded{env: env, ids: cell.NewFlowIndex(n), flows: cell.NewColumn[planeBuckets](n * n)}, nil
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

// flowBuckets returns flow f's structure, adding a fresh one on first
// sight.
func (a *LocalLeastLoaded) flowBuckets(f cell.Flow) *planeBuckets {
	if id := int(a.ids.ID(f)); id <= a.flows.Len() {
		return a.flows.At(id - 1)
	}
	k := a.env.Planes()
	w := planeBucketWords(k)
	if len(a.slab) < w {
		a.slab = make([]uint64, bucketSlabFlows*w)
	}
	pb := a.flows.Grow()
	pb.init(k, a.slab[:w:w])
	a.slab = a.slab[w:]
	return pb
}

// Buffered implements Algorithm (bufferless).
func (a *LocalLeastLoaded) Buffered(cell.Port) int { return 0 }

// WouldChoose implements Prober: the least-loaded plane for the flow
// assuming all gates free. It only reads: an unseen flow answers plane 0,
// as a fresh structure would.
func (a *LocalLeastLoaded) WouldChoose(in, out cell.Port) (cell.Plane, bool) {
	id, ok := a.ids.Find(cell.Flow{In: in, Out: out})
	if !ok {
		return 0, true
	}
	return a.flows.At(int(id) - 1).argmin(^uint64(0)), true
}
