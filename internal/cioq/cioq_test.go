package cioq

import (
	"testing"
	"testing/quick"

	"ppsim/internal/cell"
	"ppsim/internal/harness"
	"ppsim/internal/traffic"
)

func TestValidation(t *testing.T) {
	if _, err := New(0, 2); err == nil {
		t.Error("n=0 must be rejected")
	}
	if _, err := New(4, 0); err == nil {
		t.Error("speedup 0 must be rejected")
	}
	s, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Ports() != 4 || s.Speedup() != 2 {
		t.Error("accessors wrong")
	}
}

func TestSingleCellImmediate(t *testing.T) {
	s, _ := New(4, 1)
	st := cell.NewStamper()
	c := st.Stamp(cell.Flow{In: 0, Out: 3}, 0)
	deps, err := s.Step(0, []cell.Cell{c}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 1 || deps[0].Depart != 0 {
		t.Fatalf("deps = %v", deps)
	}
}

// run drives the CIOQ switch through harness.Drive, against the reference
// on the same stream, checks that every offered cell crossed, and returns
// the max relative delay. Sources without an end are fed for maxSlots/2.
func run(t *testing.T, n, speedup int, src traffic.Source, maxSlots cell.Time) cell.Time {
	t.Helper()
	s, err := New(n, speedup)
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.Drive(s, src, harness.Options{Horizon: maxSlots / 2, MaxSlots: maxSlots})
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Report; rep.Cells == 0 || rep.Cells != rep.Offered {
		t.Fatalf("%d of %d offered cells crossed", rep.Cells, rep.Offered)
	}
	return res.Report.MaxRQD
}

func TestSpeedupTwoTracksOQ(t *testing.T) {
	// Urgency-ordered matching at speedup 2 mimics the OQ switch on
	// admissible traffic (the Chuang et al. regime).
	const n = 6
	src := traffic.NewRegulator(n, 3, traffic.NewBernoulli(n, 0.8, 500, 5))
	if worst := run(t, n, 2, src, 10_000); worst > 0 {
		t.Errorf("speedup-2 CIOQ relative delay = %d, want 0", worst)
	}
}

func TestSpeedupOneFallsBehind(t *testing.T) {
	// Speedup 1 under concentrated + crossing traffic cannot keep up with
	// the OQ reference.
	const n = 6
	tr := traffic.NewTrace()
	for s := cell.Time(0); s < 60; s++ {
		for i := 0; i < n; i++ {
			out := cell.Port(0)
			if (int(s)+i)%2 == 1 {
				out = cell.Port(1 + (i % (n - 1)))
			}
			tr.MustAdd(s, cell.Port(i), out)
		}
	}
	w1 := run(t, n, 1, tr, 10_000)
	tr2 := traffic.NewTrace()
	for s := cell.Time(0); s < 60; s++ {
		for i := 0; i < n; i++ {
			out := cell.Port(0)
			if (int(s)+i)%2 == 1 {
				out = cell.Port(1 + (i % (n - 1)))
			}
			tr2.MustAdd(s, cell.Port(i), out)
		}
	}
	w2 := run(t, n, 2, tr2, 10_000)
	if w1 <= w2 {
		t.Errorf("speedup 1 (%d) should trail speedup 2 (%d)", w1, w2)
	}
}

func TestConservationAndOrder(t *testing.T) {
	prop := func(seed int64, speedupRaw bool) bool {
		n, speedup := 4, 1
		if speedupRaw {
			speedup = 2
		}
		s, err := New(n, speedup)
		if err != nil {
			return false
		}
		src := traffic.NewBernoulli(n, 0.7, 120, seed)
		st := cell.NewStamper()
		lastFlowSeq := map[cell.Flow]uint64{}
		var buf []traffic.Arrival
		var deps []cell.Cell
		delivered := uint64(0)
		for slot := cell.Time(0); slot < 5000; slot++ {
			buf = src.Arrivals(slot, buf[:0])
			cells := make([]cell.Cell, 0, len(buf))
			for _, a := range buf {
				cells = append(cells, st.Stamp(cell.Flow{In: a.In, Out: a.Out}, slot))
			}
			deps, err = s.Step(slot, cells, deps[:0])
			if err != nil {
				return false
			}
			for _, d := range deps {
				delivered++
				if last, ok := lastFlowSeq[d.Flow]; ok && d.FlowSeq != last+1 {
					return false // per-flow order broken
				} else if !ok && d.FlowSeq != 0 {
					return false
				}
				lastFlowSeq[d.Flow] = d.FlowSeq
			}
			if slot > 120 && s.Drained() {
				break
			}
		}
		return s.Drained() && delivered == st.Count()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestStepValidation(t *testing.T) {
	s, _ := New(2, 1)
	st := cell.NewStamper()
	if _, err := s.Step(0, []cell.Cell{st.Stamp(cell.Flow{In: 0, Out: 9}, 0)}, nil); err == nil {
		t.Error("out-of-range output must be rejected")
	}
	s2, _ := New(2, 1)
	s2.Step(1, nil, nil)
	if _, err := s2.Step(0, nil, nil); err == nil {
		t.Error("non-monotone slots must be rejected")
	}
	s3, _ := New(2, 1)
	if _, err := s3.Step(0, []cell.Cell{st.Stamp(cell.Flow{In: 0, Out: 1}, 5)}, nil); err == nil {
		t.Error("mis-stamped arrival must be rejected")
	}
}

// TestCIOQSteadyStateAllocFree: once the queues have grown to their working
// size a slot allocates nothing — each cell's deadline rides in its VOQ
// entry, so the switch's state is O(backlog), not O(run).
func TestCIOQSteadyStateAllocFree(t *testing.T) {
	const n, warm, runs = 8, 2000, 1000
	s, _ := New(n, 2)
	src := traffic.NewBernoulli(n, 0.8, warm+runs+1, 1)
	st := cell.NewStamperSized(n)
	slots := make([][]cell.Cell, warm+runs+1)
	var buf []traffic.Arrival
	for i := range slots {
		buf = src.Arrivals(cell.Time(i), buf[:0])
		for _, a := range buf {
			slots[i] = append(slots[i], st.Stamp(cell.Flow{In: a.In, Out: a.Out}, cell.Time(i)))
		}
	}
	var deps []cell.Cell
	slot := 0
	step := func() {
		var err error
		if deps, err = s.Step(cell.Time(slot), slots[slot], deps[:0]); err != nil {
			t.Fatal(err)
		}
		slot++
	}
	for slot < warm {
		step()
	}
	if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
		t.Errorf("%v allocs per Step in steady state, want 0", allocs)
	}
}
