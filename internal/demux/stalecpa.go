package demux

import (
	"fmt"
	"math/rand"

	"ppsim/internal/cell"
)

// StaleCPA is a u real-time distributed (u-RT) demultiplexing algorithm
// (Definition 9): every dispatch decision uses the input-port's local
// information up to the current slot plus the switch's global information
// up to slot t-u. It emulates CPA's deadline reasoning on that stale
// picture: it reconstructs, from the global event log capped at t-u, the
// shadow-switch deadline counters, the per-line last transmissions and the
// plane backlogs, overlays the input's own blind-window dispatches (which
// are local information), and picks the plane estimated to reach the
// destination earliest.
//
// Because the reconstruction is deterministic and identical across inputs,
// simultaneous arrivals inside the blind window herd onto the same
// estimated-best plane — the concentration mechanism behind Theorem 10's
// Omega((1 - u'r/R) * u'N/S) bound, driven by leaky-bucket traffic with
// burstiness u'^2 N/K - u'.
type StaleCPA struct {
	sendScratch
	env Env
	u   cell.Time
	// rngs, when non-nil, randomize tie-breaking among equally-estimated
	// planes (one independent stream per input: local randomness). The
	// E19 ablation isolates determinism as the cause of herding: with the
	// same stale information but random tie-breaks, simultaneous arrivals
	// scatter instead of piling onto one plane.
	rngs []*rand.Rand

	cur *Cursor
	// Stale reconstruction (events with T <= t-u).
	oracleNext []cell.Time // per output: stale shadow departure counter
	linkNext   []cell.Time // per (k, j): stale earliest next line slot
	backlog    []int64     // per (k, j): stale plane queue length
	// Blind-window overlay: this algorithm instance serves all inputs, but
	// each input may only overlay its *own* recent dispatches. blind[i]
	// holds input i's dispatches with T > t-u.
	blind [][]blindDispatch
}

type blindDispatch struct {
	t   cell.Time
	k   cell.Plane
	out cell.Port
}

// NewStaleCPA returns the u-RT algorithm with staleness u >= 1 (u = 0 would
// be the centralized CPA; construct that directly instead).
func NewStaleCPA(env Env, u cell.Time) (*StaleCPA, error) {
	if u < 1 {
		return nil, fmt.Errorf("demux: stale-cpa staleness must be >= 1, got %d", u)
	}
	n, k := env.Ports(), env.Planes()
	// Register on the global log now: the fabric records events only for
	// registered readers, and registering before the first slot guarantees
	// the stale reconstruction sees the complete stream.
	return &StaleCPA{
		env:        env,
		u:          u,
		cur:        env.Log().NewCursor(),
		oracleNext: make([]cell.Time, n),
		linkNext:   make([]cell.Time, n*k),
		backlog:    make([]int64, n*k),
		blind:      make([][]blindDispatch, n),
	}, nil
}

// NewStaleCPARandomTie is NewStaleCPA with randomized tie-breaking among
// planes whose estimated availability is equal. Input i's stream is seeded
// with seed+i, keeping the randomness strictly local.
func NewStaleCPARandomTie(env Env, u cell.Time, seed int64) (*StaleCPA, error) {
	a, err := NewStaleCPA(env, u)
	if err != nil {
		return nil, err
	}
	a.rngs = make([]*rand.Rand, env.Ports())
	for i := range a.rngs {
		a.rngs[i] = rand.New(rand.NewSource(seed + int64(i)))
	}
	return a, nil
}

// Name implements Algorithm.
func (a *StaleCPA) Name() string {
	if a.rngs != nil {
		return fmt.Sprintf("stale-cpa-u%d-randtie", a.u)
	}
	return fmt.Sprintf("stale-cpa-u%d", a.u)
}

// Slot implements Algorithm.
//
// The advanceView call below runs before the empty-arrivals check,
// consuming global-log events up to t-u on every slot — silent ones
// included. A slot is never elided for it: the fabric runs every reader of
// the global log stepped.
func (a *StaleCPA) Slot(t cell.Time, arrivals []cell.Cell) ([]Send, error) {
	a.advanceView(t - a.u)
	if len(arrivals) == 0 {
		return nil, nil
	}
	n := a.env.Ports()
	rp := cell.Time(a.env.RPrime())
	sends := a.take()
	for _, c := range arrivals {
		in, out := c.Flow.In, c.Flow.Out
		a.trimBlind(in, t)
		bestP := cell.NoPlane
		var bestAvail cell.Time
		ties := 0
		free := a.env.FreeGateMask(in, t)
		for kk := 0; kk < a.env.Planes(); kk++ {
			p := cell.Plane(kk)
			if free&(1<<uint(kk)) == 0 {
				continue
			}
			idx := kk*n + int(out)
			// Estimated availability: the stale line schedule plus r'
			// per cell believed queued, plus the input's own blind
			// dispatches onto this (plane, output).
			q := a.backlog[idx] + a.ownBlind(in, p, out)
			avail := a.linkNext[idx]
			if t > avail {
				avail = t
			}
			avail += cell.Time(q) * rp
			switch {
			case bestP == cell.NoPlane || avail < bestAvail:
				bestP, bestAvail = p, avail
				ties = 1
			case avail == bestAvail && a.rngs != nil:
				// Reservoir-sample uniformly among tied planes.
				ties++
				if a.rngs[in].Intn(ties) == 0 {
					bestP = p
				}
			}
		}
		if bestP == cell.NoPlane {
			return nil, fmt.Errorf("demux: stale-cpa input %d has no free gate at slot %d", in, t)
		}
		a.blind[in] = append(a.blind[in], blindDispatch{t: t, k: bestP, out: out})
		sends = append(sends, Send{Cell: c, Plane: bestP})
	}
	return a.keep(sends), nil
}

// advanceView consumes global events with T <= upto into the stale state.
func (a *StaleCPA) advanceView(upto cell.Time) {
	n := a.env.Ports()
	rp := cell.Time(a.env.RPrime())
	a.env.Log().Read(a.cur, upto, func(e Event) {
		switch e.Kind {
		case EvArrival:
			d := a.oracleNext[e.Out]
			if e.T > d {
				d = e.T
			}
			a.oracleNext[e.Out] = d + 1
		case EvDispatch:
			a.backlog[int(e.K)*n+int(e.Out)]++
		case EvXmit:
			idx := int(e.K)*n + int(e.Out)
			a.backlog[idx]--
			a.linkNext[idx] = e.T + rp
		}
	})
}

// trimBlind drops input i's own dispatches that have aged into the stale
// view (T <= t-u), which the log now accounts for.
func (a *StaleCPA) trimBlind(in cell.Port, t cell.Time) {
	b := a.blind[in]
	keep := 0
	for _, d := range b {
		if d.t > t-a.u {
			b[keep] = d
			keep++
		}
	}
	a.blind[in] = b[:keep]
}

func (a *StaleCPA) ownBlind(in cell.Port, k cell.Plane, out cell.Port) int64 {
	var c int64
	for _, d := range a.blind[in] {
		if d.k == k && d.out == out {
			c++
		}
	}
	return c
}

// Buffered implements Algorithm (bufferless).
func (a *StaleCPA) Buffered(cell.Port) int { return 0 }
