package shadow

import (
	"testing"

	"ppsim/internal/cell"
)

// A jitter-shaping (non-work-conserving) reference holds every cell D slots,
// then serializes it FCFS on its output: cell c departs at
// Oracle.Departure(c.Arrive+D, out), cells presented in Seq order. These
// tests pin that reading, which experiment E26 scores the PPS against.

func TestShapedHoldsExactlyD(t *testing.T) {
	if got := NewOracle(2).Departure(2+4, 1); got != 6 {
		t.Fatalf("departure = %d, want slot 6", got)
	}
}

func TestShapedIsNotWorkConserving(t *testing.T) {
	// A cell is pending at slot 0 but nothing departs until D: the
	// defining violation of work conservation.
	if wc, shaped := NewOracle(2).Departure(0, 0), NewOracle(2).Departure(0+5, 0); wc != 0 || shaped != 5 {
		t.Fatalf("work-conserving departs at %d, shaped at %d; want 0 and 5", wc, shaped)
	}
}

func TestShapedSerializesBursts(t *testing.T) {
	// Three simultaneous cells for one output: first departs at D, the
	// rest on the following slots (one per slot).
	o := NewOracle(4)
	for i, want := range []cell.Time{2, 3, 4} {
		if got := o.Departure(0+2, 0); got != want {
			t.Errorf("departure %d at slot %d, want %d", i, got, want)
		}
	}
}

func TestShapedZeroDelayIsFCFSLike(t *testing.T) {
	// D = 0 behaves like the work-conserving switch for a single flow.
	if got := NewOracle(2).Departure(0+0, 1); got != 0 {
		t.Errorf("D=0 should emit immediately, departed at %d", got)
	}
}
