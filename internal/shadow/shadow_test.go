package shadow

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ppsim/internal/cell"
	"ppsim/internal/traffic"
)

func TestImmediateDeparture(t *testing.T) {
	s := New(2)
	st := cell.NewStamper()
	c := st.Stamp(cell.Flow{In: 0, Out: 1}, 0)
	out := s.Step(0, []cell.Cell{c}, nil)
	if len(out) != 1 {
		t.Fatalf("departures = %d, want 1", len(out))
	}
	if out[0].Depart != 0 {
		t.Errorf("Depart = %d, want 0 (same-slot departure)", out[0].Depart)
	}
	if !s.Drained() {
		t.Error("switch should be drained")
	}
}

func TestFCFSAcrossInputs(t *testing.T) {
	s := New(3)
	st := cell.NewStamper()
	// Three cells for output 0 in one slot, from inputs 0,1,2 in seq order.
	var cells []cell.Cell
	for i := 0; i < 3; i++ {
		cells = append(cells, st.Stamp(cell.Flow{In: cell.Port(i), Out: 0}, 0))
	}
	var deps []cell.Cell
	deps = s.Step(0, cells, deps)
	deps = s.Step(1, nil, deps)
	deps = s.Step(2, nil, deps)
	if len(deps) != 3 {
		t.Fatalf("departures = %d", len(deps))
	}
	for i, d := range deps {
		if d.Seq != uint64(i) || d.Depart != cell.Time(i) {
			t.Errorf("departure %d: seq=%d depart=%d", i, d.Seq, d.Depart)
		}
	}
}

func TestIndependentOutputs(t *testing.T) {
	s := New(2)
	st := cell.NewStamper()
	a := st.Stamp(cell.Flow{In: 0, Out: 0}, 0)
	b := st.Stamp(cell.Flow{In: 1, Out: 1}, 0)
	out := s.Step(0, []cell.Cell{a, b}, nil)
	if len(out) != 2 {
		t.Fatalf("both outputs should emit in slot 0, got %d", len(out))
	}
}

func TestWorkConservation(t *testing.T) {
	// Under any admissible trace, every output with pending cells emits
	// exactly one cell per slot: total departures over [0, T) equals
	// min(arrived-so-far, busy capacity) per output. Check the direct
	// invariant: queue nonempty at slot start implies a departure.
	prop := func(raw []uint16) bool {
		const n = 4
		tr := traffic.NewTrace()
		for k, r := range raw {
			if k > 80 {
				break
			}
			tr.Add(cell.Time(r%32), cell.Port(int(r/32)%n), cell.Port(int(r/128)%n))
		}
		s := New(n)
		st := cell.NewStamper()
		var buf []traffic.Arrival
		var deps []cell.Cell
		for slot := cell.Time(0); slot < 200 && (slot < tr.End() || !s.Drained()); slot++ {
			buf = tr.Arrivals(slot, buf[:0])
			pending := make([]bool, n)
			for j := 0; j < n; j++ {
				pending[j] = s.QueueLen(cell.Port(j)) > 0
			}
			cells := make([]cell.Cell, 0, len(buf))
			for _, a := range buf {
				cells = append(cells, st.Stamp(cell.Flow{In: a.In, Out: a.Out}, slot))
				pending[a.Out] = true
			}
			deps = s.Step(slot, cells, deps[:0])
			emitted := make([]bool, n)
			for _, d := range deps {
				if emitted[d.Flow.Out] {
					return false // two departures from one output in a slot
				}
				emitted[d.Flow.Out] = true
			}
			for j := 0; j < n; j++ {
				if pending[j] && !emitted[j] {
					return false // work conservation violated
				}
			}
		}
		return s.Drained()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDelayBoundedByBurstiness(t *testing.T) {
	// Cruz: a work-conserving FCFS switch under (R, B) traffic delays cells
	// at most B slots. Feed a B-burst and check.
	const n, B = 8, 5
	s := New(n)
	st := cell.NewStamper()
	var cells []cell.Cell
	for i := 0; i <= B; i++ { // B+1 cells in one slot = burstiness B
		cells = append(cells, st.Stamp(cell.Flow{In: cell.Port(i), Out: 0}, 0))
	}
	var deps []cell.Cell
	for slot := cell.Time(0); !s.Drained() || slot == 0; slot++ {
		if slot == 0 {
			deps = s.Step(slot, cells, deps)
		} else {
			deps = s.Step(slot, nil, deps)
		}
	}
	for _, d := range deps {
		if delay := d.QueuingDelay(); delay > B {
			t.Errorf("delay %d exceeds burstiness bound %d", delay, B)
		}
	}
}

func TestStepPanicsOnSkipWithBacklog(t *testing.T) {
	s := New(2)
	st := cell.NewStamper()
	a := st.Stamp(cell.Flow{In: 0, Out: 0}, 0)
	b := st.Stamp(cell.Flow{In: 1, Out: 0}, 0)
	s.Step(0, []cell.Cell{a, b}, nil) // one departs, one queued
	defer func() {
		if recover() == nil {
			t.Error("expected panic on slot skip with backlog")
		}
	}()
	s.Step(5, nil, nil)
}

func TestStepPanicsOnNonMonotone(t *testing.T) {
	s := New(2)
	s.Step(3, nil, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Step(3, nil, nil)
}

// TestOracleMatchesSwitch pins the closed form the harness runs on to the
// stepped reference: for 1 <= N <= 64, with a tunable share of the arrivals
// aimed at one hot output (so several cells land on it per slot and its
// queue outlasts the burst), bursts separated by idle gaps the Switch skips,
// every cell must leave the Switch in exactly the slot the Oracle reserved
// on arrival, and the Oracle's backlog must track the Switch's slot by slot.
func TestOracleMatchesSwitch(t *testing.T) {
	prop := func(seed int64, nRaw, hotRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%64
		hot := float64(hotRaw%4) / 4
		s, o := New(n), NewOracle(n)
		st := cell.NewStamper()
		predicted := make(map[uint64]cell.Time)
		var cells, deps []cell.Cell
		slot := cell.Time(0)
		for burst := 0; burst < 6; burst++ {
			for end := slot + cell.Time(1+rng.Intn(12)); slot < end || !s.Drained(); slot++ {
				cells = cells[:0]
				if slot < end {
					for _, in := range rng.Perm(n)[:rng.Intn(n+1)] {
						out := cell.Port(0)
						if rng.Float64() >= hot {
							out = cell.Port(rng.Intn(n))
						}
						c := st.Stamp(cell.Flow{In: cell.Port(in), Out: out}, slot)
						peeked := o.Peek(slot, out)
						predicted[c.Seq] = o.Departure(slot, out)
						if peeked != predicted[c.Seq] {
							return false // Peek must predict Departure exactly
						}
						cells = append(cells, c)
					}
				}
				deps = s.Step(slot, cells, deps[:0])
				for _, d := range deps {
					if predicted[d.Seq] != d.Depart {
						return false
					}
					delete(predicted, d.Seq)
				}
				if o.Backlog(slot) != s.Backlog() {
					return false
				}
			}
			slot += cell.Time(rng.Intn(20))
		}
		return len(predicted) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0)
}
