package experiments

import (
	"testing"
	"testing/quick"

	"ppsim/internal/cell"
)

func regCell(seq uint64, arrive cell.Time) cell.Cell {
	return cell.New(seq, seq, cell.Flow{In: 0, Out: 0}, arrive)
}

func TestJitterRegValidation(t *testing.T) {
	if _, err := newJitterRegulator(-1, 0); err == nil {
		t.Error("negative target must be rejected")
	}
	r, err := newJitterRegulator(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.d != 3 {
		t.Errorf("target delay = %d", r.d)
	}
}

func TestUnboundedBufferZeroJitter(t *testing.T) {
	// A jittery stream (delays vary by up to 4 slots upstream) through a
	// regulator with D=5 and unbounded buffer comes out with zero jitter.
	r, _ := newJitterRegulator(5, 0)
	arrivals := map[cell.Time][]cell.Cell{
		0: {regCell(0, 0)},
		1: {regCell(1, 1)},
		6: {regCell(2, 6), regCell(3, 6)}, // a bunched pair (jitter upstream)
	}
	var out []cell.Cell
	for slot := cell.Time(0); slot < 30; slot++ {
		var err error
		out, err = r.step(slot, arrivals[slot], out)
		if err != nil {
			t.Fatal(err)
		}
	}
	if r.released != 4 {
		t.Fatalf("released %d of 4", r.released)
	}
	if r.jitter() != 0 {
		t.Errorf("unbounded regulator jitter = %d, want 0", r.jitter())
	}
	if r.early != 0 {
		t.Errorf("early = %d, want 0", r.early)
	}
	for _, c := range out {
		if c.Depart-c.Arrive != 5 {
			t.Errorf("cell %d released after %d slots, want 5", c.Seq, c.Depart-c.Arrive)
		}
	}
}

func TestBoundedBufferForcesEarlyRelease(t *testing.T) {
	// Buffer of 2 with a burst of 5 simultaneous cells and D=10: three
	// cells must leave early, creating jitter.
	r, _ := newJitterRegulator(10, 2)
	var cells []cell.Cell
	for i := uint64(0); i < 5; i++ {
		cells = append(cells, regCell(i, 0))
	}
	var out []cell.Cell
	for slot := cell.Time(0); slot < 30; slot++ {
		var in []cell.Cell
		if slot == 0 {
			in = cells
		}
		var err error
		out, err = r.step(slot, in, out)
		if err != nil {
			t.Fatal(err)
		}
	}
	if r.released != 5 {
		t.Fatalf("released %d of 5", r.released)
	}
	if r.early == 0 {
		t.Error("bounded buffer must force early releases")
	}
	if r.jitter() == 0 {
		t.Error("early releases must create jitter")
	}
}

func TestMonotoneSlotEnforced(t *testing.T) {
	r, _ := newJitterRegulator(1, 0)
	r.step(5, nil, nil)
	if _, err := r.step(5, nil, nil); err == nil {
		t.Error("repeated slot must be rejected")
	}
	if _, err := r.step(4, nil, nil); err == nil {
		t.Error("backwards slot must be rejected")
	}
}

func TestFutureArrivalRejected(t *testing.T) {
	r, _ := newJitterRegulator(1, 0)
	if _, err := r.step(0, []cell.Cell{regCell(0, 5)}, nil); err == nil {
		t.Error("future-stamped arrival must be rejected")
	}
}

// Property: with an unbounded buffer, every cell is released exactly D
// slots after arrival, whatever the arrival pattern.
func TestUnboundedExactDelay(t *testing.T) {
	prop := func(gaps []uint8, dRaw uint8) bool {
		d := cell.Time(dRaw % 16)
		r, err := newJitterRegulator(d, 0)
		if err != nil {
			return false
		}
		// Compute arrival slots from the gaps, then step *every* slot
		// (the regulator is clocked hardware; it acts each slot).
		arriveAt := map[cell.Time]bool{}
		at := cell.Time(0)
		for _, g := range gaps {
			at += cell.Time(g%5) + 1
			arriveAt[at] = true
		}
		seq := uint64(0)
		var out []cell.Cell
		for slot := cell.Time(0); slot <= at+d+1; slot++ {
			var in []cell.Cell
			if arriveAt[slot] {
				in = []cell.Cell{regCell(seq, slot)}
				seq++
			}
			var err error
			out, err = r.step(slot, in, out)
			if err != nil {
				return false
			}
		}
		if uint64(len(out)) != seq {
			return false
		}
		for _, c := range out {
			if c.Depart-c.Arrive != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: occupancy never exceeds B (for B > 0) after Step returns.
func TestBufferBoundRespected(t *testing.T) {
	prop := func(bursts []uint8, bRaw uint8) bool {
		b := int(bRaw%8) + 1
		r, err := newJitterRegulator(20, b)
		if err != nil {
			return false
		}
		seq := uint64(0)
		var out []cell.Cell
		for slot, burst := range bursts {
			var in []cell.Cell
			for i := 0; i < int(burst%4); i++ {
				in = append(in, regCell(seq, cell.Time(slot)))
				seq++
			}
			var err error
			out, err = r.step(cell.Time(slot), in, out)
			if err != nil {
				return false
			}
			if r.buf.Len() > b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
