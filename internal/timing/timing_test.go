package timing

import (
	"testing"
	"testing/quick"

	"ppsim/internal/cell"
)

// newGate returns the one line of a fresh 1x1 matrix.
func newGate(hold int64) Gate { return NewMatrix(1, 1, hold).Gate(0, 0) }

func TestGateSeizeAndFree(t *testing.T) {
	g := newGate(3)
	if !g.Free(0) {
		t.Fatal("new gate should be free")
	}
	if err := g.Seize(0); err != nil {
		t.Fatal(err)
	}
	for slot := cell.Time(0); slot < 3; slot++ {
		if g.Free(slot) {
			t.Errorf("gate should be busy at slot %d", slot)
		}
	}
	if !g.Free(3) {
		t.Error("gate should be free at slot 3")
	}
	if g.FreeAt() != 3 {
		t.Errorf("FreeAt = %d, want 3", g.FreeAt())
	}
}

func TestGateSeizeBusyErrors(t *testing.T) {
	g := newGate(2)
	if err := g.Seize(5); err != nil {
		t.Fatal(err)
	}
	if err := g.Seize(6); err == nil {
		t.Error("seizing a busy gate must error")
	}
	if err := g.Seize(7); err != nil {
		t.Errorf("gate should be free again at 7: %v", err)
	}
}

func TestGateHoldOne(t *testing.T) {
	g := newGate(1)
	for slot := cell.Time(0); slot < 5; slot++ {
		if err := g.Seize(slot); err != nil {
			t.Fatalf("hold-1 gate must allow back-to-back seizes: %v", err)
		}
	}
}

func TestGateBadHoldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	newGate(0)
}

func TestMatrixIndependence(t *testing.T) {
	m := NewMatrix(2, 3, 4)
	if err := m.Gate(0, 1).Seize(0); err != nil {
		t.Fatal(err)
	}
	// Only (0,1) should be busy.
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			want := !(r == 0 && c == 1)
			if got := m.Gate(r, c).Free(1); got != want {
				t.Errorf("gate(%d,%d).Free = %v, want %v", r, c, got, want)
			}
		}
	}
}

func TestMatrixFreeCols(t *testing.T) {
	m := NewMatrix(1, 4, 2)
	for _, c := range []int{0, 2} {
		if err := m.SeizeAt(0, c, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.FreeColsMask(0, 1); got != 0b1010 {
		t.Errorf("FreeColsMask at slot 1 = %#b, want 0b1010", got)
	}
	if got := m.FreeColsMask(0, 2); got != 0b1111 {
		t.Errorf("all should be free at slot 2, got %#b", got)
	}
}

func TestMatrixOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m := NewMatrix(2, 2, 1)
	m.Gate(2, 0)
}

// Property: a gate seized at t is busy exactly for [t, t+hold) and free at
// t+hold, for any hold in [1, 16] and any start slot.
func TestGateOccupancyWindow(t *testing.T) {
	prop := func(holdRaw uint8, startRaw uint16) bool {
		hold := int64(holdRaw%16) + 1
		start := cell.Time(startRaw)
		g := newGate(hold)
		if err := g.Seize(start); err != nil {
			return false
		}
		for s := start; s < start+cell.Time(hold); s++ {
			if g.Free(s) {
				return false
			}
		}
		return g.Free(start + cell.Time(hold))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: the input constraint admits at most ceil(window/hold) seizes in
// any window — i.e. the gate enforces rate r = R/hold.
func TestGateRateLimit(t *testing.T) {
	prop := func(holdRaw uint8, tries []bool) bool {
		hold := int64(holdRaw%8) + 1
		g := newGate(hold)
		seizes := 0
		slots := cell.Time(0)
		for _, attempt := range tries {
			if attempt && g.Free(slots) {
				if err := g.Seize(slots); err != nil {
					return false
				}
				seizes++
			}
			slots++
		}
		if slots == 0 {
			return true
		}
		maxAllowed := (int64(slots) + hold - 1) / hold
		return int64(seizes) <= maxAllowed
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
