package demux

import (
	"testing"

	"ppsim/internal/cell"
)

func TestStaleCPAValidation(t *testing.T) {
	e := newFakeEnv(2, 2, 1)
	if _, err := NewStaleCPA(e, 0); err == nil {
		t.Error("u=0 must be rejected (that is centralized CPA)")
	}
	a, err := NewStaleCPA(e, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "stale-cpa-u3" {
		t.Errorf("Name = %q", a.Name())
	}
}

func TestStaleCPAHerdsSimultaneousArrivals(t *testing.T) {
	// With a cold (empty) stale view, all inputs arriving in one slot see
	// identical state and pick the same plane — the Theorem 10 herding
	// mechanism — except where their own gates differ. With fresh gates
	// everywhere, all should pick plane 0.
	e := newFakeEnv(4, 4, 2)
	a, _ := NewStaleCPA(e, 5)
	st := cell.NewStamper()
	var cells []cell.Cell
	for i := 0; i < 4; i++ {
		cells = append(cells, arr(st, 0, cell.Port(i), 0))
	}
	sends, err := a.Slot(0, cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sends {
		if s.Plane != 0 {
			t.Errorf("input %d dispatched to plane %d, want herding to 0", s.Cell.Flow.In, s.Plane)
		}
	}
}

func TestStaleCPAOwnBlindOverlayAvoidsSelfCollision(t *testing.T) {
	// A single input sending repeatedly inside its blind window must
	// account for its own dispatches and rotate planes, not pile onto one.
	e := newFakeEnv(1, 4, 1) // r'=1 so the gate never blocks
	a, _ := NewStaleCPA(e, 10)
	st := cell.NewStamper()
	seen := map[cell.Plane]int{}
	for slot := cell.Time(0); slot < 4; slot++ {
		s := exec(t, e, a, slot, arr(st, slot, 0, 0))
		seen[s[0].Plane]++
	}
	if len(seen) != 4 {
		t.Errorf("own-blind overlay failed: dispatches landed on %v", seen)
	}
}

func TestStaleCPAConsumesLogAfterStaleness(t *testing.T) {
	e := newFakeEnv(2, 2, 1)
	a, _ := NewStaleCPA(e, 2)
	// Seed the log with heavy plane-0 dispatches for output 0 at slot 0.
	for i := 0; i < 6; i++ {
		e.log.Append(Event{T: 0, Kind: EvDispatch, In: 1, Out: 0, K: 0})
	}
	st := cell.NewStamper()
	// At slot 1 the events are still blind (1-2 < 0): herding to plane 0.
	s1, err := a.Slot(1, []cell.Cell{arr(st, 1, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if s1[0].Plane != 0 {
		t.Fatalf("blind dispatch went to plane %d", s1[0].Plane)
	}
	e.gates.Gate(0, 0).Seize(1)
	// At slot 3 the slot-0 events are visible (3-2 >= 0): plane 0 now
	// looks backlogged, so the cell must avoid it.
	s3, err := a.Slot(3, []cell.Cell{arr(st, 3, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if s3[0].Plane == 0 {
		t.Error("stale view not consumed: still dispatching to backlogged plane 0")
	}
}

func TestStaleCPARandomTieScatters(t *testing.T) {
	// Same cold stale view as the herding test, but randomized ties: the
	// four simultaneous arrivals should not all land on plane 0.
	e := newFakeEnv(4, 4, 2)
	a, err := NewStaleCPARandomTie(e, 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "stale-cpa-u5-randtie" {
		t.Errorf("Name = %q", a.Name())
	}
	st := cell.NewStamper()
	var cells []cell.Cell
	for i := 0; i < 4; i++ {
		cells = append(cells, arr(st, 0, cell.Port(i), 0))
	}
	sends, err := a.Slot(0, cells)
	if err != nil {
		t.Fatal(err)
	}
	planes := map[cell.Plane]bool{}
	for _, s := range sends {
		planes[s.Plane] = true
	}
	if len(planes) < 2 {
		t.Errorf("randomized ties still herded onto %v", planes)
	}
}

func TestStaleCPARandomTieDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []cell.Plane {
		e := newFakeEnv(2, 4, 1)
		a, _ := NewStaleCPARandomTie(e, 3, seed)
		st := cell.NewStamper()
		var out []cell.Plane
		for slot := cell.Time(0); slot < 10; slot++ {
			s := exec(t, e, a, slot, arr(st, slot, 0, 0))
			out = append(out, s[0].Plane)
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the same dispatches")
		}
	}
}

func TestBufferedCPAHoldsCellsForU(t *testing.T) {
	const u = 3
	e := newFakeEnv(2, 4, 2)
	a, err := NewBufferedCPA(e, u, MinAvail)
	if err != nil {
		t.Fatal(err)
	}
	st := cell.NewStamper()
	c := arr(st, 0, 0, 1)
	for slot := cell.Time(0); slot < u; slot++ {
		var in []cell.Cell
		if slot == 0 {
			in = []cell.Cell{c}
		}
		sends, err := a.Slot(slot, in)
		if err != nil {
			t.Fatal(err)
		}
		if len(sends) != 0 {
			t.Fatalf("cell released at slot %d, before aging %d slots", slot, u)
		}
		if a.Buffered(0) != 1 {
			t.Fatalf("Buffered(0) = %d at slot %d", a.Buffered(0), slot)
		}
	}
	sends, err := a.Slot(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sends) != 1 || sends[0].Cell.Seq != c.Seq {
		t.Fatalf("cell not released at slot %d: %v", u, sends)
	}
	if a.Buffered(0) != 0 {
		t.Error("buffer should be empty after release")
	}
}

func TestBufferedCPAZeroLagIsImmediate(t *testing.T) {
	e := newFakeEnv(2, 4, 2)
	a, _ := NewBufferedCPA(e, 0, MinAvail)
	st := cell.NewStamper()
	sends, err := a.Slot(0, []cell.Cell{arr(st, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(sends) != 1 {
		t.Fatal("u=0 must dispatch immediately")
	}
	if _, err := NewBufferedCPA(e, -1, MinAvail); err == nil {
		t.Error("negative lag must be rejected")
	}
}

// TestBufferedCPARejectsUnimplementedTie pins that a tie-break the
// simulation does not implement is an error, not a silent MinAvail run.
func TestBufferedCPARejectsUnimplementedTie(t *testing.T) {
	e := newFakeEnv(2, 4, 2)
	for _, tie := range []TieBreak{RotateTie, 7} {
		if _, err := NewBufferedCPA(e, 2, tie); err == nil {
			t.Errorf("tie-break %d must be rejected", tie)
		}
	}
}

func TestBufferedCPABufferBoundedByU(t *testing.T) {
	const u = 4
	e := newFakeEnv(1, 4, 2)
	a, _ := NewBufferedCPA(e, u, MinAvail)
	st := cell.NewStamper()
	for slot := cell.Time(0); slot < 40; slot++ {
		sends, err := a.Slot(slot, []cell.Cell{arr(st, slot, 0, 0)})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sends {
			if err := e.gates.Gate(0, int(s.Plane)).Seize(slot); err != nil {
				t.Fatal(err)
			}
		}
		if b := a.Buffered(0); b > u+1 {
			t.Fatalf("buffer occupancy %d exceeds u+1=%d", b, u+1)
		}
	}
}

func TestBufferedRRBuffersWhenGatesBusy(t *testing.T) {
	// K = r' = 2: after dispatching two cells back-to-back, both gates are
	// busy, so the third arrival must wait in the buffer.
	e := newFakeEnv(1, 2, 2)
	a, err := NewBufferedRR(e, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := cell.NewStamper()
	total := 0
	for slot := cell.Time(0); slot < 3; slot++ {
		sends, err := a.Slot(slot, []cell.Cell{arr(st, slot, 0, 0)})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sends {
			if err := e.gates.Gate(0, int(s.Plane)).Seize(slot); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	if total+a.Buffered(0) != 3 {
		t.Errorf("conservation: sent %d + buffered %d != 3", total, a.Buffered(0))
	}
}

func TestBufferedRROverflowErrors(t *testing.T) {
	e := newFakeEnv(1, 2, 2)
	a, _ := NewBufferedRR(e, 1)
	st := cell.NewStamper()
	// Fill the capacity-1 buffer without draining gates: dispatches are
	// chosen but gates never seized by us — emulate stuck gates by seizing
	// both manually first.
	e.gates.Gate(0, 0).Seize(0)
	e.gates.Gate(0, 1).Seize(0)
	if _, err := a.Slot(0, []cell.Cell{arr(st, 0, 0, 0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Slot(1, []cell.Cell{arr(st, 1, 0, 0)}); err == nil {
		t.Error("buffer overflow must error (drops are forbidden)")
	}
}

func TestBufferedRRPreservesFIFO(t *testing.T) {
	e := newFakeEnv(1, 4, 1)
	a, _ := NewBufferedRR(e, 0)
	st := cell.NewStamper()
	var seqs []uint64
	for slot := cell.Time(0); slot < 10; slot++ {
		var in []cell.Cell
		if slot < 5 {
			in = []cell.Cell{arr(st, slot, 0, 0)}
		}
		sends, err := a.Slot(slot, in)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sends {
			e.gates.Gate(0, int(s.Plane)).Seize(slot)
			seqs = append(seqs, s.Cell.Seq)
		}
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("buffer order violated: %v", seqs)
		}
	}
}

func TestFTDBlockDistinctPlanes(t *testing.T) {
	e := newFakeEnv(1, 8, 2)
	a, err := NewFTD(e, 2) // block = ceil(2*2) = 4
	if err != nil {
		t.Fatal(err)
	}
	if a.BlockSize() != 4 {
		t.Fatalf("BlockSize = %d", a.BlockSize())
	}
	st := cell.NewStamper()
	var planes []cell.Plane
	for slot := cell.Time(0); slot < 8; slot++ {
		s := exec(t, e, a, slot, arr(st, slot, 0, 0))
		planes = append(planes, s[0].Plane)
	}
	for _, block := range [][]cell.Plane{planes[:4], planes[4:]} {
		seen := map[cell.Plane]bool{}
		for _, p := range block {
			if seen[p] {
				t.Errorf("plane %d repeated within a block: %v", p, block)
			}
			seen[p] = true
		}
	}
	if a.Fallbacks() != 0 {
		t.Errorf("unexpected fallbacks: %d", a.Fallbacks())
	}
}

func TestFTDValidation(t *testing.T) {
	e := newFakeEnv(1, 4, 2)
	if _, err := NewFTD(e, 1.0); err == nil {
		t.Error("h <= 1 must be rejected")
	}
	if _, err := NewFTD(e, 3); err == nil {
		t.Error("block > K must be rejected")
	}
}

func TestFTDWouldChoose(t *testing.T) {
	e := newFakeEnv(1, 4, 1)
	a, _ := NewFTD(e, 2)
	p, ok := a.WouldChoose(0, 0)
	if !ok || p != 0 {
		t.Errorf("fresh flow WouldChoose = %d %v", p, ok)
	}
	st := cell.NewStamper()
	s := exec(t, e, a, 0, arr(st, 0, 0, 0))
	if s[0].Plane != p {
		t.Error("WouldChoose must predict the dispatch")
	}
	p2, _ := a.WouldChoose(0, 0)
	if p2 == p {
		t.Error("after a dispatch the in-block prediction must move on")
	}
}

// TestStaleCPABlindWindowHoldsLastUSlots drives two inputs with one cell a
// slot and checks each input's blind window after every slot: it holds the
// dispatches of the last min(t+1, u) slots, and, for u within the slab's
// cap, stays on its slab cut. u = 20 is past blindSlabCap, so its windows
// grow off the slab.
func TestStaleCPABlindWindowHoldsLastUSlots(t *testing.T) {
	for _, u := range []cell.Time{1, 4, blindSlabCap, 20} {
		e := newFakeEnv(2, 4, 1)
		a, err := NewStaleCPA(e, u)
		if err != nil {
			t.Fatal(err)
		}
		slab := &a.blind[0][:1][0]
		st := cell.NewStamper()
		for slot := cell.Time(0); slot < 3*u+5; slot++ {
			exec(t, e, a, slot, arr(st, slot, 0, 1), arr(st, slot, 1, 0))
			for in, w := range a.blind {
				if want := int(min(slot+1, u)); len(w) != want {
					t.Fatalf("u=%d slot %d: input %d window holds %d dispatches, want %d", u, slot, in, len(w), want)
				}
				if first := w[0].t; first != slot+1-cell.Time(len(w)) {
					t.Fatalf("u=%d slot %d: input %d window starts at slot %d, want %d", u, slot, in, first, slot+1-cell.Time(len(w)))
				}
			}
		}
		if onSlab := &a.blind[0][0] == slab; onSlab != (u <= blindSlabCap) {
			t.Errorf("u=%d: input 0's window on its slab cut = %v, want %v", u, onSlab, u <= blindSlabCap)
		}
	}
}
