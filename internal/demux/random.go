package demux

import (
	"fmt"
	"math/bits"
	"math/rand"

	"ppsim/internal/cell"
)

// Random dispatches every arriving cell to a uniformly random plane among
// those with a free input gate. It is fully distributed (each input's
// random stream is independent and local).
//
// The paper's Discussion notes that its lower-bound traffics are worst
// cases for randomized demultiplexing algorithms too — the steering
// adversary cannot align a randomized demultiplexor's pointers, but random
// balls-into-bins concentration still yields Theta(sqrt(N)-ish) collisions
// per plane; experiment E13 contrasts the two regimes empirically.
//
// The free set is a bitmask (one Env.FreeGateMask call) and the draw selects
// the idx-th set bit — the same plane an ascending free-list indexed at idx
// would give, off the same Intn(count) variate, at a few word ops per cell
// instead of an O(K) scan plus list build.
type Random struct {
	sendScratch
	env  Env
	rngs []*rand.Rand // one per input: independent local randomness
}

// NewRandom returns the randomized dispatcher seeded deterministically from
// seed (input i uses seed+i).
func NewRandom(env Env, seed int64) (*Random, error) {
	if int64(env.Planes()) < env.RPrime() {
		return nil, fmt.Errorf("demux: random needs K >= r' (K=%d, r'=%d)", env.Planes(), env.RPrime())
	}
	r := &Random{env: env, rngs: make([]*rand.Rand, env.Ports())}
	for i := range r.rngs {
		r.rngs[i] = rand.New(rand.NewSource(seed + int64(i)))
	}
	return r, nil
}

// Name implements Algorithm.
func (r *Random) Name() string { return "random" }

// Slot implements Algorithm.
func (r *Random) Slot(t cell.Time, arrivals []cell.Cell) ([]Send, error) {
	if len(arrivals) == 0 {
		return nil, nil
	}
	sends := r.take()
	for _, c := range arrivals {
		in := c.Flow.In
		m := r.env.FreeGateMask(in, t)
		if m == 0 {
			return nil, fmt.Errorf("demux: random input %d has no free gate at slot %d", in, t)
		}
		// The idx-th lowest set bit is exactly free[idx] of the ascending
		// free list, so the same Intn draw lands on the same plane.
		idx := r.rngs[in].Intn(bits.OnesCount64(m))
		for ; idx > 0; idx-- {
			m &= m - 1
		}
		sends = append(sends, Send{Cell: c, Plane: cell.Plane(bits.TrailingZeros64(m))})
	}
	return r.keep(sends), nil
}

// Buffered implements Algorithm (bufferless).
func (r *Random) Buffered(cell.Port) int { return 0 }
