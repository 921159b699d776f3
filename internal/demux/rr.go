package demux

import (
	"fmt"

	"ppsim/internal/cell"
)

// Granularity selects how round-robin pointers are scoped.
type Granularity uint8

// Round-robin pointer scopes.
const (
	// PerInput: one pointer per input, advanced by every cell the input
	// dispatches regardless of destination. This is the simplest
	// unpartitioned fully-distributed algorithm (Corollary 7's subject).
	PerInput Granularity = iota
	// PerFlow: one pointer per (input, output) pair. Cells of a flow
	// visit planes cyclically, which is the dispatch discipline of the
	// fully-distributed CPA variant of Iyer-McKeown [15] (relative
	// queuing delay at most N*R/r) and of FTD-style algorithms.
	PerFlow
)

// RoundRobin is the unpartitioned fully-distributed demultiplexing
// algorithm: each input cycles over all K planes, skipping planes whose
// input gate is busy. It uses no global information whatsoever, and —
// because every demultiplexor can send a cell for any output through any
// plane — it is N-partitioned in the paper's terminology, subject to the
// Omega((R/r - 1) * N) bound of Corollary 7.
type RoundRobin struct {
	sendScratch
	env  Env
	gran Granularity
	ptr  []cell.Plane            // PerInput state: input → next plane
	fids *cell.FlowIndex         // PerFlow state: (In, Out) → flow id
	fptr cell.Column[cell.Plane] // PerFlow state: flow id - 1 → next plane
}

// NewRoundRobin returns the round-robin algorithm with the given pointer
// granularity. It returns an error if K < r' (an input receiving a cell
// every slot could not sustain rate R).
func NewRoundRobin(env Env, gran Granularity) (*RoundRobin, error) {
	if int64(env.Planes()) < env.RPrime() {
		return nil, fmt.Errorf("demux: round-robin needs K >= r' (K=%d, r'=%d)", env.Planes(), env.RPrime())
	}
	rr := &RoundRobin{env: env, gran: gran}
	switch gran {
	case PerInput:
		rr.ptr = make([]cell.Plane, env.Ports())
	case PerFlow:
		n := env.Ports()
		rr.fids, rr.fptr = cell.NewFlowIndex(n), cell.NewColumn[cell.Plane](n*n)
	default:
		return nil, fmt.Errorf("demux: unknown granularity %d", gran)
	}
	return rr, nil
}

// Name implements Algorithm.
func (rr *RoundRobin) Name() string {
	if rr.gran == PerFlow {
		return "perflow-rr"
	}
	return "rr"
}

// Slot implements Algorithm. Every arriving cell is dispatched immediately
// (bufferless PPS): the next plane in cyclic order with a free input gate.
func (rr *RoundRobin) Slot(t cell.Time, arrivals []cell.Cell) ([]Send, error) {
	if len(arrivals) == 0 {
		return nil, nil
	}
	sends := rr.take()
	for _, c := range arrivals {
		ptr := rr.pointer(c.Flow)
		p := pickFree(rr.env, c.Flow.In, t, *ptr, ^uint64(0))
		if p == cell.NoPlane {
			return nil, fmt.Errorf("demux: rr input %d has no free gate at slot %d", c.Flow.In, t)
		}
		*ptr = (p + 1) % cell.Plane(rr.env.Planes())
		sends = append(sends, Send{Cell: c, Plane: p})
	}
	return rr.keep(sends), nil
}

// Buffered implements Algorithm (bufferless: always 0).
func (rr *RoundRobin) Buffered(cell.Port) int { return 0 }

// WouldChoose implements Prober: the plane the next cell of (in -> out)
// would take if all gates were free. It only reads: an unseen flow answers
// plane 0, as a fresh pointer would.
func (rr *RoundRobin) WouldChoose(in, out cell.Port) (cell.Plane, bool) {
	if rr.gran == PerInput {
		return rr.ptr[in], true
	}
	id, ok := rr.fids.Find(cell.Flow{In: in, Out: out})
	if !ok {
		return 0, true
	}
	return *rr.fptr.At(int(id) - 1), true
}

// pointer returns flow f's pointer, resolving the flow once per cell and
// adding a pointer at plane 0 on its first sight.
func (rr *RoundRobin) pointer(f cell.Flow) *cell.Plane {
	if rr.gran == PerInput {
		return &rr.ptr[f.In]
	}
	id := int(rr.fids.ID(f))
	rr.fptr.GrowTo(id)
	return rr.fptr.At(id - 1)
}
