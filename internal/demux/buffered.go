package demux

import (
	"fmt"

	"ppsim/internal/cell"
	"ppsim/internal/queue"
	"ppsim/internal/shadow"
)

// BufferedCPA is the input-buffered u-RT algorithm of Theorem 12: with
// input buffers of size u and speedup S >= 2 it guarantees relative queuing
// delay at most u by simulating the centralized CPA algorithm at a lag of u
// slots.
//
// Every cell is held in its input buffer for exactly u slots. At slot t the
// algorithm dispatches the cells that arrived at slot t-u; by then their
// arrival is global information (Definition 9 permits global information in
// [0, t-u]), so every input can replay the same deterministic CPA
// simulation over the common arrival prefix and execute the decisions for
// its own cells. The simulated deadline of a cell is its shadow departure
// slot plus u, hence the u-slot relative delay ceiling.
type BufferedCPA struct {
	sendScratch
	env    Env
	u      cell.Time
	tie    TieBreak
	oracle *shadow.Oracle
	// linkNext per (k, j), as in CPA, but reservations start at the
	// dispatch slot t (not the arrival slot).
	linkNext []cell.Time
	bufs     []queue.FIFO[cell.Cell]
	misses   uint64
}

// NewBufferedCPA returns the algorithm with lag (= buffer size) u >= 0.
// u = 0 degenerates to the centralized CPA.
func NewBufferedCPA(env Env, u cell.Time, tie TieBreak) (*BufferedCPA, error) {
	if u < 0 {
		return nil, fmt.Errorf("demux: buffered-cpa lag must be >= 0, got %d", u)
	}
	n, k := env.Ports(), env.Planes()
	return &BufferedCPA{
		env:      env,
		u:        u,
		tie:      tie,
		oracle:   shadow.NewOracle(n),
		linkNext: make([]cell.Time, n*k),
		bufs:     make([]queue.FIFO[cell.Cell], n),
	}, nil
}

// Name implements Algorithm.
func (a *BufferedCPA) Name() string { return fmt.Sprintf("buffered-cpa-u%d", a.u) }

// Misses reports cells with no deadline-feasible plane.
func (a *BufferedCPA) Misses() uint64 { return a.misses }

// Slot implements Algorithm.
func (a *BufferedCPA) Slot(t cell.Time, arrivals []cell.Cell) ([]Send, error) {
	for _, c := range arrivals {
		a.bufs[c.Flow.In].Push(c)
	}
	n, k := a.env.Ports(), a.env.Planes()
	sends := a.take()
	// Release, from every input buffer, the cells that have aged u slots.
	// Input order equals sequence order for same-slot arrivals, so oracle
	// deadlines are assigned in the shadow switch's FCFS order.
	for i := 0; i < n; i++ {
		for !a.bufs[i].Empty() && t-a.bufs[i].Peek().Arrive >= a.u {
			c := a.bufs[i].Pop()
			deadline := a.oracle.Departure(c.Arrive, c.Flow.Out) + a.u
			bestP := cell.NoPlane
			var bestReserve cell.Time
			for kk := 0; kk < k; kk++ {
				p := cell.Plane(kk)
				if a.env.InputGateFreeAt(cell.Port(i), p) > t {
					continue
				}
				reserve := a.linkNext[kk*n+int(c.Flow.Out)]
				if t > reserve {
					reserve = t
				}
				if bestP == cell.NoPlane || reserve < bestReserve {
					bestP, bestReserve = p, reserve
				}
			}
			if bestP == cell.NoPlane {
				return nil, fmt.Errorf("demux: buffered-cpa input %d has no free gate at slot %d", i, t)
			}
			if bestReserve > deadline {
				a.misses++
			}
			a.linkNext[int(bestP)*n+int(c.Flow.Out)] = bestReserve + cell.Time(a.env.RPrime())
			sends = append(sends, Send{Cell: c, Plane: bestP})
			if a.u > 0 {
				break // at most one release per input per slot keeps rate R
			}
		}
	}
	return a.keep(sends), nil
}

// Buffered implements Algorithm.
func (a *BufferedCPA) Buffered(in cell.Port) int { return a.bufs[in].Len() }

// BufferedRR is the input-buffered fully-distributed algorithm of
// Theorem 13: a per-input FIFO buffer drained round-robin across planes.
// The buffer gives the demultiplexor freedom over *when* to dispatch, but
// with no global information the steering adversary still concentrates
// cells, so the relative queuing delay remains Omega((1 - r/R) * N/S)
// regardless of the buffer size.
type BufferedRR struct {
	sendScratch
	env      Env
	capacity int // max cells per input buffer; <= 0 means unbounded
	ptr      []cell.Plane
	bufs     []queue.FIFO[cell.Cell]
}

// NewBufferedRR returns the buffered round-robin algorithm. capacity <= 0
// means unbounded buffers.
func NewBufferedRR(env Env, capacity int) (*BufferedRR, error) {
	if int64(env.Planes()) < env.RPrime() {
		return nil, fmt.Errorf("demux: buffered-rr needs K >= r' (K=%d, r'=%d)", env.Planes(), env.RPrime())
	}
	return &BufferedRR{
		env:      env,
		capacity: capacity,
		ptr:      make([]cell.Plane, env.Ports()),
		bufs:     make([]queue.FIFO[cell.Cell], env.Ports()),
	}, nil
}

// Name implements Algorithm.
func (a *BufferedRR) Name() string { return "buffered-rr" }

// Slot implements Algorithm: enqueue arrivals, then drain each buffer
// greedily onto free gates in round-robin order.
func (a *BufferedRR) Slot(t cell.Time, arrivals []cell.Cell) ([]Send, error) {
	for _, c := range arrivals {
		in := c.Flow.In
		if a.capacity > 0 && a.bufs[in].Len() >= a.capacity {
			return nil, fmt.Errorf("demux: buffered-rr input %d buffer overflow (cap %d) at slot %d — the model forbids drops", in, a.capacity, t)
		}
		a.bufs[in].Push(c)
	}
	sends := a.take()
	for i := range a.bufs {
		in := cell.Port(i)
		for !a.bufs[i].Empty() {
			p := pickFree(a.env, in, t, a.ptr[i], nil)
			if p == cell.NoPlane {
				break // every gate busy; try again next slot
			}
			c := a.bufs[i].Pop()
			a.ptr[i] = (p + 1) % cell.Plane(a.env.Planes())
			sends = append(sends, Send{Cell: c, Plane: p})
			// pickFree consults live gate state, but the fabric seizes
			// gates only after Slot returns; within a slot we must not
			// reuse a gate we just chose. Dispatching at most one cell
			// per input per slot sidesteps the aliasing and still
			// sustains rate R.
			break
		}
	}
	return a.keep(sends), nil
}

// Buffered implements Algorithm.
func (a *BufferedRR) Buffered(in cell.Port) int { return a.bufs[in].Len() }

// WouldChoose implements Prober.
func (a *BufferedRR) WouldChoose(in, out cell.Port) (cell.Plane, bool) {
	return a.ptr[in], true
}

// IdleInvariant certifies the idle-elision capability for the input-buffered
// CPA simulation. Slot does scan the input buffers on silent slots, but with
// every buffer empty it mutates nothing and sends nothing — and the harness
// only elides slots on which the fabric counts zero pending cells, which is
// exactly the empty-buffers condition.
func (a *BufferedCPA) IdleInvariant() bool { return true }

// IdleInvariant certifies the idle-elision capability; see
// BufferedCPA.IdleInvariant for why empty buffers make the silent-slot scan
// a no-op.
func (a *BufferedRR) IdleInvariant() bool { return true }
