package demux_test

import (
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/traffic"
)

// TestStaleCPALogBounded drives stale-cpa through a fabric for a long run and
// checks that the armed global log holds only the events its reader can still
// see: those of the last u+1 slots (at most 3N per slot: arrival, dispatch,
// crossing), with the amortized compaction's factor of two and floor on top.
func TestStaleCPALogBounded(t *testing.T) {
	const (
		n       = 16
		u       = 4
		horizon = 200_000
	)
	p, err := fabric.New(fabric.Config{N: n, K: 8, RPrime: 4},
		func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPA(e, u) })
	if err != nil {
		t.Fatal(err)
	}
	log := p.Log()
	bound := 2*3*n*(u+1) + demux.LogCompactFloor
	src := traffic.NewBernoulli(n, 0.9, horizon, 1)
	st := cell.NewStamper()
	var buf []traffic.Arrival
	var cells, deps []cell.Cell
	peak := 0
	for slot := cell.Time(0); slot < horizon; slot++ {
		buf = src.Arrivals(slot, buf[:0])
		cells = cells[:0]
		for _, a := range buf {
			cells = append(cells, st.Stamp(cell.Flow{In: a.In, Out: a.Out}, slot))
		}
		if deps, err = p.Step(slot, cells, deps[:0]); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if r := log.Retained(); r > bound {
			t.Fatalf("slot %d: log retains %d events, bound %d", slot, r, bound)
		} else if r > peak {
			peak = r
		}
	}
	if log.Len() < 3*int(p.Departed()) {
		t.Fatalf("Len = %d counts fewer than the events of %d cells", log.Len(), p.Departed())
	}
	t.Logf("peak retained %d of %d events (bound %d)", peak, log.Len(), bound)
}
