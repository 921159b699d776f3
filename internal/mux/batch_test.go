package mux

import (
	"reflect"
	"testing"
	"testing/quick"

	"ppsim/internal/cell"
)

// buildView assembles a fakeView + output pair from a fuzzed cell placement:
// cell i goes to plane assign[i]%k with flow (i%n -> 0), FlowSeq tracked per
// input so resequencing stays legal.
func buildView(assign []uint8, k, n int, hold int64) *fakeView {
	fv := newFakeView(0, k, n, hold)
	flowSeq := make([]uint64, n)
	for i, a := range assign {
		in := cell.Port(i % n)
		c := cell.New(uint64(i), flowSeq[in], cell.Flow{In: in, Out: 0}, 0)
		flowSeq[in]++
		fv.enqueue(int(a)%k, c)
	}
	return fv
}

// drain runs the output until the planes and buffer are empty, collecting
// the departure (Seq, slot) pairs.
type departure struct {
	Seq  uint64
	Slot cell.Time
}

func drain(t *testing.T, o *Output, fv *fakeView, total int) []departure {
	t.Helper()
	var out []departure
	for slot := cell.Time(0); slot < 10000 && len(out) < total; slot++ {
		c, ok, err := o.Step(slot, fv)
		if err != nil {
			t.Fatalf("Step(%d): %v", slot, err)
		}
		if ok {
			out = append(out, departure{c.Seq, c.Depart})
		}
	}
	return out
}

// drainRepeated is drain's per-cell oracle, the historical one-cell-at-a-time
// pull: each slot it re-scans eligibility and takes the first head through
// the view's own Take until none is left, then emits the earliest in-order
// cell.
func drainRepeated(t *testing.T, b *Buffer, fv *fakeView, total int) []departure {
	t.Helper()
	var out []departure
	for slot := cell.Time(0); slot < 10000 && len(out) < total; slot++ {
		for heads := fv.Eligible(slot, nil); len(heads) > 0; heads = fv.Eligible(slot, nil) {
			r, err := fv.Take(slot, heads[0].K)
			if err != nil {
				t.Fatalf("Take(%d, %d): %v", slot, heads[0].K, err)
			}
			b.Push(slot, r)
		}
		if c, ok := b.PopEmittable(); ok {
			out = append(out, departure{c.Seq, slot})
		}
	}
	return out
}

// Property: for any cell placement across planes and any line hold time,
// the batched pull (one Eligible + one PullBatch per slot) departs exactly
// the same cells in the same slots as taking eligible heads one at a time.
// This pins the batch protocol to the per-cell semantics the historical
// engine had.
func TestPullBatchMatchesRepeatedPull(t *testing.T) {
	prop := func(assign []uint8, holdRaw uint8) bool {
		if len(assign) > 32 {
			assign = assign[:32]
		}
		const k, n = 4, 8
		hold := int64(holdRaw%3) + 1
		fvA := buildView(assign, k, n, hold)
		fvB := buildView(assign, k, n, hold)
		depsA := drain(t, NewOutput(0, Eager{}, fvA.s, n), fvA, len(assign))
		depsB := drainRepeated(t, &NewOutput(0, Eager{}, fvB.s, n).buf, fvB, len(assign))
		if !reflect.DeepEqual(depsA, depsB) {
			t.Logf("batched %v\nrepeated %v", depsA, depsB)
			return false
		}
		return fvA.s.Live() == 0 && fvB.s.Live() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
