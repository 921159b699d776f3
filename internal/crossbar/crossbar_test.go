package crossbar

import (
	"testing"
	"testing/quick"

	"ppsim/internal/cell"
	"ppsim/internal/harness"
	"ppsim/internal/traffic"
)

func TestValidation(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Error("n=0 must be rejected")
	}
	if _, err := New(4, 0); err == nil {
		t.Error("0 iterations must be rejected")
	}
	if _, err := NewWithArbiter(4, 1, Arbiter(9), 0); err == nil {
		t.Error("unknown arbiter must be rejected")
	}
}

func TestPIMDeliversEverythingWithoutConflicts(t *testing.T) {
	const n = 6
	s, err := NewWithArbiter(n, 2, PIM, 42)
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewBernoulli(n, 0.7, 300, 9)
	st := cell.NewStamper()
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
			t.Fatal(err)
		}
		var inSeen, outSeen [n]bool
		for _, d := range deps {
			if inSeen[d.Flow.In] || outSeen[d.Flow.Out] {
				t.Fatal("PIM produced a conflicting matching")
			}
			inSeen[d.Flow.In] = true
			outSeen[d.Flow.Out] = true
			delivered++
		}
		if slot > 300 && s.Drained() {
			break
		}
	}
	if !s.Drained() || delivered != st.Count() {
		t.Fatalf("delivered %d of %d", delivered, st.Count())
	}
}

func TestPIMDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) uint64 {
		const n = 4
		s, _ := NewWithArbiter(n, 1, PIM, seed)
		src := traffic.NewBernoulli(n, 0.9, 100, 3)
		st := cell.NewStamper()
		var buf []traffic.Arrival
		var deps []cell.Cell
		var sig uint64
		for slot := cell.Time(0); slot < 500; slot++ {
			buf = src.Arrivals(slot, buf[:0])
			cells := make([]cell.Cell, 0, len(buf))
			for _, a := range buf {
				cells = append(cells, st.Stamp(cell.Flow{In: a.In, Out: a.Out}, slot))
			}
			deps, _ = s.Step(slot, cells, deps[:0])
			for _, d := range deps {
				sig = sig*31 + d.Seq + uint64(d.Depart)
			}
			if slot > 100 && s.Drained() {
				break
			}
		}
		return sig
	}
	if run(7) != run(7) {
		t.Error("same seed must reproduce the same execution")
	}
}

func TestSingleCellCrossesImmediately(t *testing.T) {
	s, _ := New(4, 1)
	st := cell.NewStamper()
	c := st.Stamp(cell.Flow{In: 1, Out: 2}, 0)
	deps, err := s.Step(0, []cell.Cell{c}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 1 || deps[0].Depart != 0 {
		t.Fatalf("departures = %v", deps)
	}
	if !s.Drained() {
		t.Error("should be drained")
	}
}

func TestPermutationFullThroughput(t *testing.T) {
	// A fixed permutation keeps every (input, output) pair distinct;
	// iSLIP must sustain one cell per port per slot with bounded delay.
	const n, slots = 8, 200
	s, _ := New(n, 1)
	st := cell.NewStamper()
	perm := []cell.Port{3, 1, 4, 0, 6, 2, 7, 5}
	total := 0
	var deps []cell.Cell
	for slot := cell.Time(0); slot < slots+50; slot++ {
		var cells []cell.Cell
		if slot < slots {
			for i := 0; i < n; i++ {
				cells = append(cells, st.Stamp(cell.Flow{In: cell.Port(i), Out: perm[i]}, slot))
			}
		}
		var err error
		deps, err = s.Step(slot, cells, deps[:0])
		if err != nil {
			t.Fatal(err)
		}
		total += len(deps)
		for _, d := range deps {
			if delay := d.QueuingDelay(); delay > n {
				t.Fatalf("delay %d too large under permutation traffic", delay)
			}
		}
	}
	if total != n*slots {
		t.Errorf("delivered %d of %d cells", total, n*slots)
	}
}

func TestNoOutputConflicts(t *testing.T) {
	// Never two departures from one output (or one input) in a slot.
	prop := func(seed int64) bool {
		const n = 4
		s, _ := New(n, 2)
		src := traffic.NewBernoulli(n, 0.8, 150, seed)
		st := cell.NewStamper()
		var buf []traffic.Arrival
		var deps []cell.Cell
		for slot := cell.Time(0); slot < 2000; slot++ {
			buf = src.Arrivals(slot, buf[:0])
			cells := make([]cell.Cell, 0, len(buf))
			for _, a := range buf {
				cells = append(cells, st.Stamp(cell.Flow{In: a.In, Out: a.Out}, slot))
			}
			var err error
			deps, err = s.Step(slot, cells, deps[:0])
			if err != nil {
				return false
			}
			var inSeen, outSeen [n]bool
			for _, d := range deps {
				if inSeen[d.Flow.In] || outSeen[d.Flow.Out] {
					return false
				}
				inSeen[d.Flow.In] = true
				outSeen[d.Flow.Out] = true
			}
			if slot > 150 && s.Drained() {
				break
			}
		}
		return s.Drained()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestVOQFIFOWithinFlow(t *testing.T) {
	const n = 4
	s, _ := New(n, 1)
	st := cell.NewStamper()
	var got []uint64
	var deps []cell.Cell
	for slot := cell.Time(0); slot < 40; slot++ {
		var cells []cell.Cell
		if slot < 10 {
			cells = append(cells, st.Stamp(cell.Flow{In: 0, Out: 1}, slot))
		}
		var err error
		deps, err = s.Step(slot, cells, deps[:0])
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range deps {
			got = append(got, d.FlowSeq)
		}
		if s.Drained() && slot > 10 {
			break
		}
	}
	for i, fs := range got {
		if fs != uint64(i) {
			t.Fatalf("flow order: %v", got)
		}
	}
}

func TestHOLBlockingVersusShadow(t *testing.T) {
	// The u-RT character: with one iteration and adversarial VOQ
	// contention, the crossbar falls behind an output-queued switch.
	const n, slots = 4, 50
	s, _ := New(n, 1)
	tr := traffic.NewTrace()
	for slot := cell.Time(0); slot < slots; slot++ {
		// All inputs fight for output 0 and also feed other outputs.
		for i := 0; i < n; i++ {
			out := cell.Port(0)
			if (int(slot)+i)%2 == 1 {
				out = cell.Port(1 + (i % (n - 1)))
			}
			tr.MustAdd(slot, cell.Port(i), out)
		}
	}
	res, err := harness.Drive(s, tr, harness.Options{MaxSlots: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Cells != n*slots {
		t.Errorf("%d of %d cells crossed", res.Report.Cells, n*slots)
	}
	if res.Report.MaxRQD <= 0 {
		t.Errorf("expected positive relative delay under contention, got %d", res.Report.MaxRQD)
	}
}

func TestMoreIterationsNeverWorseMatching(t *testing.T) {
	// With heavy uniform load, 4 iterations should deliver at least as
	// many cells as 1 iteration over the same trace.
	run := func(iters int) int {
		const n = 8
		s, _ := New(n, iters)
		src := traffic.NewBernoulli(n, 0.95, 300, 123)
		st := cell.NewStamper()
		var buf []traffic.Arrival
		total := 0
		var deps []cell.Cell
		for slot := cell.Time(0); slot < 300; slot++ {
			buf = src.Arrivals(slot, buf[:0])
			cells := make([]cell.Cell, 0, len(buf))
			for _, a := range buf {
				cells = append(cells, st.Stamp(cell.Flow{In: a.In, Out: a.Out}, slot))
			}
			deps, _ = s.Step(slot, cells, deps[:0])
			total += len(deps)
		}
		return total
	}
	if one, four := run(1), run(4); four < one {
		t.Errorf("4-iteration iSLIP delivered %d < 1-iteration %d", four, one)
	}
}

func TestStepValidation(t *testing.T) {
	s, _ := New(2, 1)
	st := cell.NewStamper()
	c := st.Stamp(cell.Flow{In: 0, Out: 5}, 0)
	if _, err := s.Step(0, []cell.Cell{c}, nil); err == nil {
		t.Error("out-of-range destination must be rejected")
	}
	s2, _ := New(2, 1)
	s2.Step(1, nil, nil)
	if _, err := s2.Step(1, nil, nil); err == nil {
		t.Error("non-monotone slot must be rejected")
	}
	s3, _ := New(2, 1)
	bad := st.Stamp(cell.Flow{In: 0, Out: 1}, 9)
	if _, err := s3.Step(0, []cell.Cell{bad}, nil); err == nil {
		t.Error("mis-stamped arrival must be rejected")
	}
}
