package fabric

// The fabric advertises itself as the referee of every experiment: an
// algorithm that cheats produces an error, not a better number. These tests
// play a rogue's gallery of cheating algorithms against it and check that
// every violation is caught.

import (
	"slices"
	"strings"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/faults"
	"ppsim/internal/traffic"
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

// TestDeadPlaneSendHoldsInputLine: under DropCount a send into a failed
// plane is a drop, not an error, but the input still drove the cell down
// its line (input, plane), which stays busy for r' slots. A second send on
// that line inside the window is an input-constraint violation, dead plane
// or not: a demultiplexor must not gain line capacity by aiming at a
// failed plane.
func TestDeadPlaneSendHoldsInputLine(t *testing.T) {
	factory := rogueFactory(func(demux.Env) func(cell.Time, []cell.Cell) ([]demux.Send, error) {
		return func(_ cell.Time, arrivals []cell.Cell) ([]demux.Send, error) {
			var out []demux.Send
			for _, c := range arrivals {
				out = append(out, demux.Send{Cell: c, Plane: 1})
			}
			return out, nil
		}
	}, nil)
	p, err := New(Config{N: 2, K: 2, RPrime: 2, CheckInvariants: true, FaultPolicy: faults.DropCount}, factory)
	if err != nil {
		t.Fatal(err)
	}
	p.Plane(1).Fail()
	st := cell.NewStamper()
	if err := stepOne(t, p, 0, st.Stamp(cell.Flow{In: 0, Out: 0}, 0)); err != nil {
		t.Fatalf("a send into the dead plane is a drop: %v", err)
	}
	if p.Dropped() != 1 {
		t.Fatalf("dropped %d cells, want 1", p.Dropped())
	}
	err = stepOne(t, p, 1, st.Stamp(cell.Flow{In: 0, Out: 1}, 1))
	if err == nil || !strings.Contains(err.Error(), "input constraint") {
		t.Errorf("reusing the held line to the dead plane must be caught: %v", err)
	}
}

// TestDeadPlaneSendDrawsNoLoss: a plane's loss stream draws once per cell
// sent into the live plane. Sends into it while it is down are dead-plane
// drops and draw nothing, so the cells it loses after it recovers are the
// same whether or not anything was sent to it during the outage.
func TestDeadPlaneSendDrawsNoLoss(t *testing.T) {
	factory := rogueFactory(func(demux.Env) func(cell.Time, []cell.Cell) ([]demux.Send, error) {
		return func(_ cell.Time, arrivals []cell.Cell) ([]demux.Send, error) {
			var out []demux.Send
			for _, c := range arrivals {
				out = append(out, demux.Send{Cell: c, Plane: 0})
			}
			return out, nil
		}
	}, nil)
	lostAfterOutage := func(sendDuringOutage bool) []cell.Time {
		sched := faults.NewSchedule().Outage(0, 0, 10).WithLoss(0, 0.5).WithSeed(3)
		p, err := New(Config{N: 2, K: 2, RPrime: 1, CheckInvariants: true, FaultPolicy: faults.DropCount, Faults: sched}, factory)
		if err != nil {
			t.Fatal(err)
		}
		st := cell.NewStamper()
		var lost []cell.Time
		for slot := cell.Time(0); slot < 40; slot++ {
			var cells []cell.Cell
			if slot >= 10 || sendDuringOutage {
				cells = append(cells, st.Stamp(cell.Flow{In: 0, Out: 1}, slot))
			}
			if _, err := p.Step(slot, cells, nil); err != nil {
				t.Fatal(err)
			}
			for _, c := range p.SlotDrops() {
				if slot >= 10 {
					lost = append(lost, c.Arrive)
				}
			}
		}
		return lost
	}
	with, without := lostAfterOutage(true), lostAfterOutage(false)
	if len(without) == 0 || !slices.Equal(with, without) {
		t.Errorf("cells lost after the outage: %v with sends into the dead plane, %v without", with, without)
	}
}

// TestRefereeCatchesIdleSlotForgery: Step consults the algorithm on every
// slot, idle ones included, so a send forged on a slot with no arrival and
// nothing pending is caught. EventStep elides that call by design (an idle
// Slot is a no-op for an honest algorithm); Step is the referee that keeps it.
func TestRefereeCatchesIdleSlotForgery(t *testing.T) {
	st := cell.NewStamper()
	forged := st.Stamp(cell.Flow{In: 1, Out: 0}, 3)
	factory := rogueFactory(func(demux.Env) func(cell.Time, []cell.Cell) ([]demux.Send, error) {
		return func(t cell.Time, arrivals []cell.Cell) ([]demux.Send, error) {
			if t == 3 && len(arrivals) == 0 {
				return []demux.Send{{Cell: forged, Plane: 0}}, nil
			}
			return nil, nil
		}
	}, nil)
	p, err := New(Config{N: 2, K: 2, RPrime: 1, CheckInvariants: true}, factory)
	if err != nil {
		t.Fatal(err)
	}
	for slot := cell.Time(0); slot < 3; slot++ {
		if err := stepOne(t, p, slot); err != nil {
			t.Fatalf("slot %d: idle slot failed: %v", slot, err)
		}
	}
	err = stepOne(t, p, 3)
	if err == nil || !strings.Contains(err.Error(), "not pending") {
		t.Errorf("a send forged on an idle slot must be caught: %v", err)
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

// TestRefereeCatchesOverclaimedBuffer: both entry points catch it. The
// sparse audit of EventStep covers the input because it had an arrival this
// slot, although its cell left in that slot and it holds nothing pending.
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
	for _, step := range []func(*PPS, cell.Time, []cell.Cell, []cell.Cell) ([]cell.Cell, error){(*PPS).Step, (*PPS).EventStep} {
		p, _ := New(Config{N: 2, K: 2, RPrime: 1, BufferCap: -1, CheckInvariants: true}, factory)
		st := cell.NewStamper()
		_, err := step(p, 0, []cell.Cell{st.Stamp(cell.Flow{In: 0, Out: 0}, 0)}, nil)
		if err == nil || !strings.Contains(err.Error(), "cell lost or duplicated") {
			t.Errorf("phantom buffered cells must be caught: %v", err)
		}
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
		// The cells below skip stage 1 of slot, which would grow the per-flow
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
		if left := p.dropGaps[0].Len(); left != 0 {
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
	if !p.Drained() || p.Backlog() != 0 || p.outputBusy(0) || p.busy[0] != 0 || p.busySum[0] != 0 {
		t.Errorf("Drained %v, Backlog %d, output 0 busy %v, busy set %#x/%#x; want a drained idle switch",
			p.Drained(), p.Backlog(), p.outputBusy(0), p.busy[0], p.busySum[0])
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

// TestDropRecordsKeyedByFlow: input 0's flows to outputs 2 and 3, which
// share a store shard serially and under 2 workers, each lose the same
// FlowSeq. Both the order referee and the resequencers keep one drop table
// per shard, so a record keyed by (In, FlowSeq) alone would let one flow's
// record overwrite the other's. In "FlowSeq 0" the loss is at the flow's
// frontier, which only the referee records. In "FlowSeq 1" it is ahead of
// the frontier (FlowSeq 0 waits in a plane behind a busy output line), so
// both outputs' resequencers hold a record too. Either way both flows'
// successors must depart and the referee must accept both gaps.
func TestDropRecordsKeyedByFlow(t *testing.T) {
	type send struct {
		slot    cell.Time
		in, out cell.Port
		fs      uint64
		k       cell.Plane
	}
	// Planes 4 and 5 are failed: a send there is a drop. r' = 4, so a
	// pull holds its output line for four slots.
	for _, tc := range []struct {
		name  string
		sends []send
	}{
		{"FlowSeq 0", []send{
			{0, 0, 2, 0, 4}, {1, 0, 3, 0, 5}, {2, 0, 2, 1, 0}, {3, 0, 3, 1, 1},
		}},
		{"FlowSeq 1", []send{
			// Busy the lines (0, 2) and (1, 3) until slot 4.
			{0, 3, 2, 0, 0}, {0, 2, 3, 0, 1},
			{1, 0, 2, 0, 0}, {2, 0, 3, 0, 1}, // wait in the planes until slot 4
			{3, 0, 2, 1, 4}, {4, 0, 3, 1, 5}, // dropped ahead of the frontier
			{5, 0, 2, 2, 2}, {6, 0, 3, 2, 3},
		}},
	} {
		plane := map[[3]uint64]cell.Plane{}
		tr := traffic.NewTrace()
		for _, s := range tc.sends {
			plane[[3]uint64{uint64(s.in), uint64(s.out), s.fs}] = s.k
			tr.MustAdd(s.slot, s.in, s.out)
		}
		factory := rogueFactory(func(demux.Env) func(cell.Time, []cell.Cell) ([]demux.Send, error) {
			return func(_ cell.Time, arrivals []cell.Cell) ([]demux.Send, error) {
				var out []demux.Send
				for _, c := range arrivals {
					k := plane[[3]uint64{uint64(c.Flow.In), uint64(c.Flow.Out), c.FlowSeq}]
					out = append(out, demux.Send{Cell: c, Plane: k})
				}
				return out, nil
			}
		}, nil)
		for _, core := range []string{"stepped", "event", "workers2"} {
			t.Run(tc.name+"/"+core, func(t *testing.T) {
				cfg := Config{N: 4, K: 6, RPrime: 4, CheckInvariants: true, FaultPolicy: faults.DropCount}
				if core == "workers2" {
					cfg.Workers = 2
				}
				p, err := New(cfg, factory)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				if p.outShard[2] != p.outShard[3] {
					t.Fatalf("outputs 2 and 3 in shards %d and %d, want one", p.outShard[2], p.outShard[3])
				}
				p.Plane(4).Fail()
				p.Plane(5).Fail()
				step := p.Step
				if core == "event" {
					step = p.EventStep
				}
				st := cell.NewStamper()
				var deps []cell.Cell
				for slot := cell.Time(0); slot < tr.End() || !p.Drained(); slot++ {
					if slot > 4*tr.End() {
						t.Fatalf("switch did not drain: backlog %d, %d departed", p.Backlog(), len(deps))
					}
					var cells []cell.Cell
					for _, a := range tr.Arrivals(slot, nil) {
						cells = append(cells, st.Stamp(cell.Flow{In: a.In, Out: a.Out}, slot))
					}
					if deps, err = step(slot, cells, deps); err != nil {
						t.Fatalf("slot %d: %v", slot, err)
					}
				}
				if p.Dropped() != 2 || int(p.Departed()) != len(tc.sends)-2 {
					t.Fatalf("dropped %d, departed %d of %d cells, want 2 dropped", p.Dropped(), p.Departed(), len(tc.sends))
				}
				last := map[cell.Port]uint64{}
				for _, c := range deps {
					if c.Flow.In == 0 {
						last[c.Flow.Out] = c.FlowSeq
					}
				}
				if want := tc.sends[len(tc.sends)-1].fs; last[2] != want || last[3] != want {
					t.Errorf("input 0's last departures to outputs 2 and 3 carry FlowSeq %d and %d, want %d", last[2], last[3], want)
				}
			})
		}
	}
}
