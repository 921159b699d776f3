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

// repeatedPull is the historical one-cell-at-a-time eager policy, expressed
// against the batched view: re-scan eligibility and take one head per
// round. It is the per-cell oracle PullBatch must match.
type repeatedPull struct{}

func (repeatedPull) Name() string { return "repeated-pull" }

func (repeatedPull) Pull(t cell.Time, pv PlaneView, buf *Buffer) error {
	for {
		sc := buf.scratch(pv)
		sc.heads = pv.Eligible(t, sc.heads[:0])
		heads := sc.heads
		if len(heads) == 0 {
			return nil
		}
		r, err := pv.Take(t, heads[0].K)
		if err != nil {
			return err
		}
		buf.Push(t, r)
	}
}

// Property: for any cell placement across planes and any line hold time,
// the batched Eager policy (one Eligible + one PullBatch per slot) departs
// exactly the same cells in the same slots as taking eligible heads one at
// a time. This pins the batch protocol to the per-cell semantics the
// historical engine had.
func TestPullBatchMatchesRepeatedPull(t *testing.T) {
	prop := func(assign []uint8, holdRaw uint8) bool {
		if len(assign) > 32 {
			assign = assign[:32]
		}
		const k, n = 4, 8
		hold := int64(holdRaw%3) + 1
		fvA := buildView(assign, k, n, hold)
		fvB := buildView(assign, k, n, hold)
		oA := NewOutput(0, Eager{}, fvA.s, n)
		oB := NewOutput(0, repeatedPull{}, fvB.s, n)
		depsA := drain(t, oA, fvA, len(assign))
		depsB := drain(t, oB, fvB, len(assign))
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

// Property: BoundedEager's one-scan selection over the Eligible snapshot
// equals the historical re-scan loop (select min-Seq among free lines,
// take, repeat up to Max). A take only consumes its own plane, so the
// snapshot minus taken entries is exactly the re-scanned set.
type rescanBounded struct{ Max int }

func (p rescanBounded) Name() string { return "rescan-bounded" }

func (p rescanBounded) Pull(t cell.Time, pv PlaneView, buf *Buffer) error {
	for pulled := 0; pulled < p.Max; pulled++ {
		sc := buf.scratch(pv)
		sc.heads = pv.Eligible(t, sc.heads[:0])
		heads := sc.heads
		best := -1
		for i := range heads {
			if best < 0 || heads[i].Seq < heads[best].Seq {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		r, err := pv.Take(t, heads[best].K)
		if err != nil {
			return err
		}
		buf.Push(t, r)
	}
	return nil
}

func TestBoundedEagerOneScanMatchesRescan(t *testing.T) {
	prop := func(assign []uint8, maxRaw, holdRaw uint8) bool {
		if len(assign) > 24 {
			assign = assign[:24]
		}
		const k, n = 4, 8
		max := int(maxRaw%5) + 1
		hold := int64(holdRaw%2) + 1
		fvA := buildView(assign, k, n, hold)
		fvB := buildView(assign, k, n, hold)
		oA := NewOutput(0, BoundedEager{Max: max}, fvA.s, n)
		oB := NewOutput(0, rescanBounded{Max: max}, fvB.s, n)
		return reflect.DeepEqual(drain(t, oA, fvA, len(assign)), drain(t, oB, fvB, len(assign)))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
