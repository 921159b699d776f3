package demux

import (
	"fmt"
	"math"

	"ppsim/internal/cell"
)

// FTD implements fractional traffic dispatch (Khotimsky & Krishnan [17])
// with the parameterized extension of Section 5 of the paper (Theorem 14),
// referred to here as FTDX.
//
// Each flow (i, j) is segmented into blocks of size b = ceil(h * R/r) for a
// parameter h > 1; the cells of one block are dispatched through pairwise
// distinct planes. This fully-distributed discipline spreads every flow
// evenly, so once all plane queues for an output are backlogged (a
// *congested period*), the output-side lines keep the output busy every
// slot and the PPS introduces no relative queuing delay after a warm-up
// period that shrinks as h grows. Proposition 15 shows the traffic that
// creates such congestion cannot be (R, B) leaky-bucket for fixed B, which
// is why this does not contradict Theorem 8.
//
// Correct operation requires speedup S >= h (the paper's FTD family works
// with S >= K - floor(K/2)). When every unused plane's gate is busy the
// implementation falls back to any free gate and counts the violation,
// rather than dropping the cell.
type FTD struct {
	sendScratch
	env   Env
	h     float64
	block int
	flows map[cell.Flow]*ftdFlow
	falls uint64 // block-discipline violations (fallback dispatches)
}

type ftdFlow struct {
	used    []bool // planes used in the current block
	inBlock int
	ptr     cell.Plane
}

// NewFTD returns the dispatcher with block parameter h > 1. It returns an
// error if the implied block size exceeds K (a block could never use
// distinct planes).
func NewFTD(env Env, h float64) (*FTD, error) {
	if h <= 1 {
		return nil, fmt.Errorf("demux: ftd parameter h must exceed 1, got %g", h)
	}
	block := int(math.Ceil(h * float64(env.RPrime())))
	if block > env.Planes() {
		return nil, fmt.Errorf("demux: ftd block %d exceeds K=%d planes", block, env.Planes())
	}
	return &FTD{env: env, h: h, block: block, flows: make(map[cell.Flow]*ftdFlow)}, nil
}

// Name implements Algorithm.
func (a *FTD) Name() string { return fmt.Sprintf("ftd-h%g", a.h) }

// BlockSize returns b = ceil(h * r').
func (a *FTD) BlockSize() int { return a.block }

// Fallbacks reports how many cells could not respect the block discipline.
func (a *FTD) Fallbacks() uint64 { return a.falls }

// Slot implements Algorithm.
func (a *FTD) Slot(t cell.Time, arrivals []cell.Cell) ([]Send, error) {
	if len(arrivals) == 0 {
		return nil, nil
	}
	sends := a.take()
	for _, c := range arrivals {
		fs := a.flows[c.Flow]
		if fs == nil {
			fs = &ftdFlow{used: make([]bool, a.env.Planes())}
			a.flows[c.Flow] = fs
		}
		p := pickFree(a.env, c.Flow.In, t, fs.ptr, func(k cell.Plane) bool { return !fs.used[k] })
		if p == cell.NoPlane {
			// Block discipline unsatisfiable this slot: fall back to any
			// free gate rather than dropping the cell.
			p = pickFree(a.env, c.Flow.In, t, fs.ptr, nil)
			if p == cell.NoPlane {
				return nil, fmt.Errorf("demux: ftd input %d has no free gate at slot %d", c.Flow.In, t)
			}
			a.falls++
		}
		fs.used[p] = true
		fs.inBlock++
		fs.ptr = (p + 1) % cell.Plane(a.env.Planes())
		if fs.inBlock == a.block {
			fs.inBlock = 0
			for i := range fs.used {
				fs.used[i] = false
			}
		}
		sends = append(sends, Send{Cell: c, Plane: p})
	}
	return a.keep(sends), nil
}

// Buffered implements Algorithm (bufferless).
func (a *FTD) Buffered(cell.Port) int { return 0 }

// WouldChoose implements Prober: the next in-block plane for the flow,
// assuming all gates free.
func (a *FTD) WouldChoose(in, out cell.Port) (cell.Plane, bool) {
	fs := a.flows[cell.Flow{In: in, Out: out}]
	if fs == nil {
		return 0, true
	}
	k := a.env.Planes()
	for d := 0; d < k; d++ {
		p := cell.Plane((int(fs.ptr) + d) % k)
		if !fs.used[p] {
			return p, true
		}
	}
	return fs.ptr, true
}

// IdleInvariant certifies the idle-elision capability: flow state and block
// fall-back counters move only on arrivals.
func (a *FTD) IdleInvariant() bool { return true }
