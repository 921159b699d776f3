package fabric

// The fabric advertises itself as the referee of every experiment: an
// algorithm that cheats produces an error, not a better number. These tests
// play a rogue's gallery of cheating algorithms against it and check that
// every violation is caught.

import (
	"strings"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/faults"
)

// rogue is a configurable misbehaving algorithm.
type rogue struct {
	env    demux.Env
	cheat  func(t cell.Time, arrivals []cell.Cell) ([]demux.Send, error)
	buffer func(in cell.Port) int
}

func (r *rogue) Name() string { return "rogue" }
func (r *rogue) Slot(t cell.Time, arrivals []cell.Cell) ([]demux.Send, error) {
	return r.cheat(t, arrivals)
}
func (r *rogue) Buffered(in cell.Port) int {
	if r.buffer != nil {
		return r.buffer(in)
	}
	return 0
}

func rogueFactory(cheat func(env demux.Env) func(cell.Time, []cell.Cell) ([]demux.Send, error), buffer func(in cell.Port) int) func(demux.Env) (demux.Algorithm, error) {
	return func(e demux.Env) (demux.Algorithm, error) {
		return &rogue{env: e, cheat: cheat(e), buffer: buffer}, nil
	}
}

func stepOne(t *testing.T, p *PPS, slot cell.Time, cells ...cell.Cell) error {
	t.Helper()
	_, err := p.Step(slot, cells, nil)
	return err
}

func TestRefereeCatchesGateViolation(t *testing.T) {
	// Dispatches every cell to plane 0 regardless of the input gate.
	factory := rogueFactory(func(demux.Env) func(cell.Time, []cell.Cell) ([]demux.Send, error) {
		return func(_ cell.Time, arrivals []cell.Cell) ([]demux.Send, error) {
			var out []demux.Send
			for _, c := range arrivals {
				out = append(out, demux.Send{Cell: c, Plane: 0})
			}
			return out, nil
		}
	}, nil)
	p, err := New(Config{N: 2, K: 4, RPrime: 3, CheckInvariants: true}, factory)
	if err != nil {
		t.Fatal(err)
	}
	st := cell.NewStamper()
	if err := stepOne(t, p, 0, st.Stamp(cell.Flow{In: 0, Out: 0}, 0)); err != nil {
		t.Fatalf("first dispatch legal: %v", err)
	}
	err = stepOne(t, p, 1, st.Stamp(cell.Flow{In: 0, Out: 1}, 1))
	if err == nil || !strings.Contains(err.Error(), "input constraint") {
		t.Errorf("gate reuse must be caught: %v", err)
	}
}

func TestRefereeCatchesNonexistentPlane(t *testing.T) {
	factory := rogueFactory(func(demux.Env) func(cell.Time, []cell.Cell) ([]demux.Send, error) {
		return func(_ cell.Time, arrivals []cell.Cell) ([]demux.Send, error) {
			var out []demux.Send
			for _, c := range arrivals {
				out = append(out, demux.Send{Cell: c, Plane: 99})
			}
			return out, nil
		}
	}, nil)
	p, _ := New(Config{N: 2, K: 2, RPrime: 1}, factory)
	st := cell.NewStamper()
	err := stepOne(t, p, 0, st.Stamp(cell.Flow{In: 0, Out: 0}, 0))
	if err == nil || !strings.Contains(err.Error(), "nonexistent plane") {
		t.Errorf("phantom plane must be caught: %v", err)
	}
}

func TestRefereeCatchesForgedCell(t *testing.T) {
	// Dispatches a cell that never arrived (forged identity).
	factory := rogueFactory(func(demux.Env) func(cell.Time, []cell.Cell) ([]demux.Send, error) {
		return func(slot cell.Time, arrivals []cell.Cell) ([]demux.Send, error) {
			forged := cell.New(999, 0, cell.Flow{In: 1, Out: 0}, slot)
			return []demux.Send{{Cell: forged, Plane: 0}}, nil
		}
	}, nil)
	p, _ := New(Config{N: 2, K: 2, RPrime: 1, CheckInvariants: true}, factory)
	st := cell.NewStamper()
	err := stepOne(t, p, 0, st.Stamp(cell.Flow{In: 0, Out: 0}, 0))
	if err == nil || !strings.Contains(err.Error(), "not pending") {
		t.Errorf("forged cell must be caught: %v", err)
	}
}

func TestRefereeCatchesDoubleDispatch(t *testing.T) {
	factory := rogueFactory(func(demux.Env) func(cell.Time, []cell.Cell) ([]demux.Send, error) {
		return func(_ cell.Time, arrivals []cell.Cell) ([]demux.Send, error) {
			var out []demux.Send
			for _, c := range arrivals {
				out = append(out, demux.Send{Cell: c, Plane: 0}, demux.Send{Cell: c, Plane: 1})
			}
			return out, nil
		}
	}, nil)
	p, _ := New(Config{N: 2, K: 2, RPrime: 1, CheckInvariants: true}, factory)
	st := cell.NewStamper()
	err := stepOne(t, p, 0, st.Stamp(cell.Flow{In: 0, Out: 0}, 0))
	if err == nil || !strings.Contains(err.Error(), "not pending") {
		t.Errorf("double dispatch must be caught: %v", err)
	}
}

func TestRefereeCatchesSilentDrop(t *testing.T) {
	// Keeps every cell but reports an empty buffer: a silent drop.
	factory := rogueFactory(func(demux.Env) func(cell.Time, []cell.Cell) ([]demux.Send, error) {
		return func(cell.Time, []cell.Cell) ([]demux.Send, error) {
			return nil, nil // swallow arrivals
		}
	}, func(cell.Port) int { return 0 })
	p, _ := New(Config{N: 2, K: 2, RPrime: 1, BufferCap: -1, CheckInvariants: true}, factory)
	st := cell.NewStamper()
	err := stepOne(t, p, 0, st.Stamp(cell.Flow{In: 0, Out: 0}, 0))
	if err == nil || !strings.Contains(err.Error(), "cell lost or duplicated") {
		t.Errorf("silent drop must be caught: %v", err)
	}
}

func TestRefereeCatchesOverclaimedBuffer(t *testing.T) {
	// Dispatches everything but claims cells are still buffered.
	factory := rogueFactory(func(env demux.Env) func(cell.Time, []cell.Cell) ([]demux.Send, error) {
		return func(slot cell.Time, arrivals []cell.Cell) ([]demux.Send, error) {
			var out []demux.Send
			for _, c := range arrivals {
				out = append(out, demux.Send{Cell: c, Plane: 0})
			}
			return out, nil
		}
	}, func(cell.Port) int { return 3 })
	p, _ := New(Config{N: 2, K: 2, RPrime: 1, BufferCap: -1, CheckInvariants: true}, factory)
	st := cell.NewStamper()
	err := stepOne(t, p, 0, st.Stamp(cell.Flow{In: 0, Out: 0}, 0))
	if err == nil || !strings.Contains(err.Error(), "cell lost or duplicated") {
		t.Errorf("phantom buffered cells must be caught: %v", err)
	}
}

func TestRefereeHonestAlgorithmPasses(t *testing.T) {
	// Control: an honest single-plane-rotation rogue passes all checks.
	factory := rogueFactory(func(env demux.Env) func(cell.Time, []cell.Cell) ([]demux.Send, error) {
		next := cell.Plane(0)
		return func(slot cell.Time, arrivals []cell.Cell) ([]demux.Send, error) {
			var out []demux.Send
			for _, c := range arrivals {
				for env.FreeGateMask(c.Flow.In, slot)&(1<<uint(next)) == 0 {
					next = (next + 1) % cell.Plane(env.Planes())
				}
				out = append(out, demux.Send{Cell: c, Plane: next})
				next = (next + 1) % cell.Plane(env.Planes())
			}
			return out, nil
		}
	}, nil)
	p, err := New(Config{N: 2, K: 4, RPrime: 2, CheckInvariants: true}, factory)
	if err != nil {
		t.Fatal(err)
	}
	st := cell.NewStamper()
	for slot := cell.Time(0); slot < 20; slot++ {
		c := st.Stamp(cell.Flow{In: cell.Port(slot % 2), Out: cell.Port((slot + 1) % 2)}, slot)
		if err := stepOne(t, p, slot, c); err != nil {
			t.Fatalf("honest algorithm flagged at slot %d: %v", slot, err)
		}
	}
}

// TestRefereeGapTolerance drives the order referee directly. Under
// DropCount a flow's departures may skip exactly the FlowSeqs recordDrop
// accounted — in whatever order the drops were recorded — and nothing else.
func TestRefereeGapTolerance(t *testing.T) {
	newPPS := func(t *testing.T, policy faults.Policy) *PPS {
		p, err := New(Config{N: 4, K: 2, RPrime: 1, FaultPolicy: policy}, rrFactory(demux.PerInput))
		if err != nil {
			t.Fatal(err)
		}
		// The cells below skip beginSlot, which would grow the per-flow
		// columns to their ids: cover all N² ids up front.
		p.lastFlowSeq.GrowTo(16)
		p.flowNext.GrowTo(16)
		return p
	}
	ids := cell.NewStamperSized(4)
	at := func(in, out cell.Port, fs uint64) cell.Cell {
		c := cell.New(0, fs, cell.Flow{In: in, Out: out}, 0)
		c.FlowID = ids.ID(c.Flow)
		return c
	}
	depart := func(t *testing.T, p *PPS, in, out cell.Port, seqs ...uint64) {
		t.Helper()
		for _, fs := range seqs {
			if err := p.checkFlowOrder(at(in, out, fs)); err != nil {
				t.Fatalf("departure %d of flow (%d,%d) flagged: %v", fs, in, out, err)
			}
		}
	}
	violates := func(t *testing.T, p *PPS, c cell.Cell, want string) {
		t.Helper()
		if err := p.checkFlowOrder(c); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("checkFlowOrder(%v) = %v, want an error containing %q", c, err, want)
		}
	}

	t.Run("drops recorded out of order excuse the gap", func(t *testing.T) {
		p := newPPS(t, faults.DropCount)
		depart(t, p, 0, 1, 0, 1, 2)
		for _, fs := range []uint64{3, 5, 4} {
			p.recordDrop(0, at(0, 1, fs))
		}
		depart(t, p, 0, 1, 6)
		if left := p.dropGaps[1].Len(); left != 0 {
			t.Errorf("%d gap records left after the gap was crossed", left)
		}
	})
	t.Run("a gap wider than the drops is a violation", func(t *testing.T) {
		p := newPPS(t, faults.DropCount)
		depart(t, p, 0, 1, 0, 1, 2)
		for _, fs := range []uint64{3, 4, 5} {
			p.recordDrop(0, at(0, 1, fs))
		}
		violates(t, p, at(0, 1, 7), "cell 7 departed after 2")
	})
	t.Run("first departure must be FlowSeq 0", func(t *testing.T) {
		violates(t, newPPS(t, faults.DropCount), at(2, 1, 1), "first departure has FlowSeq 1")
	})
	t.Run("another flow's drop excuses nothing", func(t *testing.T) {
		p := newPPS(t, faults.DropCount)
		depart(t, p, 0, 2, 0)
		depart(t, p, 1, 2, 0)
		p.recordDrop(0, at(0, 2, 1))
		violates(t, p, at(1, 2, 2), "cell 2 departed after 0")
		depart(t, p, 0, 2, 2) // the record is still there for its own flow
	})
	t.Run("Abort tolerates no gap", func(t *testing.T) {
		p := newPPS(t, faults.Abort)
		if p.dropGaps != nil {
			t.Fatal("gap tables allocated under Abort")
		}
		depart(t, p, 0, 1, 0)
		violates(t, p, at(0, 1, 2), "cell 2 departed after 0")
	})
}

// A flow whose last cell is dropped leaves a gap record no departure will
// ever consume. It must not count as work: the switch is drained and the
// output idle.
func TestTrailingDropLeavesSwitchDrained(t *testing.T) {
	// Cell fs goes to plane fs: FlowSeq 0 through plane 0, FlowSeq 1 into
	// the failed plane 1.
	factory := rogueFactory(func(demux.Env) func(cell.Time, []cell.Cell) ([]demux.Send, error) {
		return func(_ cell.Time, arrivals []cell.Cell) ([]demux.Send, error) {
			var out []demux.Send
			for _, c := range arrivals {
				out = append(out, demux.Send{Cell: c, Plane: cell.Plane(c.FlowSeq)})
			}
			return out, nil
		}
	}, nil)
	p, err := New(Config{N: 2, K: 2, RPrime: 1, CheckInvariants: true, FaultPolicy: faults.DropCount}, factory)
	if err != nil {
		t.Fatal(err)
	}
	p.Plane(1).Fail()
	st := cell.NewStamper()
	f := cell.Flow{In: 0, Out: 0}
	for slot := cell.Time(0); slot < 3; slot++ {
		var cells []cell.Cell
		if slot < 2 {
			cells = append(cells, st.Stamp(f, slot))
		}
		if _, err := p.EventStep(slot, cells, nil); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
	}
	if p.Departed() != 1 || p.Dropped() != 1 {
		t.Fatalf("departed %d, dropped %d, want 1 and 1", p.Departed(), p.Dropped())
	}
	if p.dropGaps[0].Len() != 1 {
		t.Fatalf("%d gap records, want the one trailing drop", p.dropGaps[0].Len())
	}
	if !p.Drained() || p.Backlog() != 0 || p.outputBusy(0) || len(p.busyList) != 0 {
		t.Errorf("Drained %v, Backlog %d, output 0 busy %v, busy list %v; want a drained idle switch",
			p.Drained(), p.Backlog(), p.outputBusy(0), p.busyList)
	}
}

// TestRefereeRejectsBadFlowIDs: an arrival's FlowID indexes the referee's
// and the resequencers' per-flow columns, so the fabric admits only ids a
// Stamper could have minted for an N x N switch — 1..N² — on both cores,
// and names the cell it refuses. An id beyond N² would otherwise grow the
// columns without bound. A dispatched cell's id must be one an arrival
// carried.
func TestRefereeRejectsBadFlowIDs(t *testing.T) {
	const n = 4
	forge := func(id cell.FlowID) func(demux.Env) func(cell.Time, []cell.Cell) ([]demux.Send, error) {
		return func(demux.Env) func(cell.Time, []cell.Cell) ([]demux.Send, error) {
			return func(_ cell.Time, arrivals []cell.Cell) ([]demux.Send, error) {
				var out []demux.Send
				for _, c := range arrivals {
					c.FlowID = id
					out = append(out, demux.Send{Cell: c, Plane: 0})
				}
				return out, nil
			}
		}
	}
	honest := rrFactory(demux.PerInput)
	for _, tc := range []struct {
		name    string
		arrival cell.FlowID // the Stamper mints 1 for the test's one flow
		alg     func(demux.Env) (demux.Algorithm, error)
		want    string
	}{
		{"unstamped arrival", 0, honest, "carries flow id 0 outside [1, 16]"},
		{"arrival id past N²", n*n + 1, honest, "carries flow id 17 outside [1, 16]"},
		{"dispatch zeroes the id", 1, rogueFactory(forge(0), nil), "unknown flow id 0"},
		{"dispatch invents an id", 1, rogueFactory(forge(n*n+1), nil), "unknown flow id 17"},
	} {
		for _, core := range []string{"stepped", "event"} {
			t.Run(tc.name+"/"+core, func(t *testing.T) {
				p, err := New(Config{N: n, K: 2, RPrime: 1, CheckInvariants: true}, tc.alg)
				if err != nil {
					t.Fatal(err)
				}
				c := cell.NewStamperSized(n).Stamp(cell.Flow{In: 1, Out: 2}, 0)
				c.FlowID = tc.arrival
				step := p.Step
				if core == "event" {
					step = p.EventStep
				}
				_, err = step(0, []cell.Cell{c}, nil)
				if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "(1->2)") {
					t.Fatalf("err = %v, want one naming cell (1->2) and containing %q", err, tc.want)
				}
				if got := p.lastFlowSeq.Len() + p.flowNext.Len(); got > 2*n*n {
					t.Errorf("the rejected id grew the per-flow columns to %d entries", got)
				}
			})
		}
	}
}
