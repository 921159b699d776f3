package mux

import (
	"testing"

	"ppsim/internal/cell"
)

// skipCell builds a cell of flow f with the given global and per-flow
// sequence numbers; only ordering fields matter to the resequencer.
func skipCell(f cell.Flow, seq, flowSeq uint64) cell.Cell {
	return cell.New(seq, flowSeq, f, 0)
}

// popAll drains the emittable side, returning the FlowSeqs in pop order.
func popAll(b *Buffer) []uint64 {
	var out []uint64
	for {
		c, ok := b.PopEmittable()
		if !ok {
			return out
		}
		out = append(out, c.FlowSeq)
	}
}

func TestSkipReleasesParkedSuccessor(t *testing.T) {
	f := cell.Flow{In: 0, Out: 0}
	b, push, skip := testBuffer(4)
	push(skipCell(f, 1, 1)) // parks: waiting for FlowSeq 0
	if _, ok := b.PopEmittable(); ok {
		t.Fatal("successor emitted before its gap was resolved")
	}
	skip(f, 0) // FlowSeq 0 was dropped in the switch
	if got := popAll(b); len(got) != 1 || got[0] != 1 {
		t.Errorf("popped %v, want [1]", got)
	}
	if b.Len() != 0 {
		t.Errorf("Len = %d after drain", b.Len())
	}
}

func TestSkipOutOfOrder(t *testing.T) {
	// Two planes failing in turn can drop a flow's cells out of FlowSeq
	// order: skip 2 arrives before skip 1. Cell 3 must wait for both.
	f := cell.Flow{In: 1, Out: 0}
	b, push, skip := testBuffer(4)
	push(skipCell(f, 0, 0))
	push(skipCell(f, 3, 3))
	skip(f, 2)
	skip(f, 1)
	if got := popAll(b); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("popped %v, want [0 3]", got)
	}
}

func TestSkipBeforeFirstPush(t *testing.T) {
	// The gap can be the very first cell the output ever hears about.
	f := cell.Flow{In: 0, Out: 2}
	b, push, skip := testBuffer(4)
	skip(f, 0)
	push(skipCell(f, 5, 1))
	if got := popAll(b); len(got) != 1 || got[0] != 1 {
		t.Errorf("popped %v, want [1]", got)
	}
}

func TestSkipFarAheadParksUntilReached(t *testing.T) {
	// A skip beyond the flow's frontier must not advance anything until the
	// intervening cells are delivered.
	f := cell.Flow{In: 2, Out: 0}
	b, push, skip := testBuffer(4)
	skip(f, 2) // dropped, but 0 and 1 are still in flight
	if b.Len() != 0 {
		t.Fatalf("Len = %d: a drop record was counted as a buffered cell", b.Len())
	}
	push(skipCell(f, 9, 3)) // parks behind the gap
	push(skipCell(f, 4, 0)) // in order: emittable
	if got := popAll(b); len(got) != 1 || got[0] != 0 {
		t.Fatalf("popped %v, want [0]", got)
	}
	push(skipCell(f, 7, 1)) // delivers 1; skip of 2 then uncovers 3
	if got := popAll(b); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("popped %v, want [1 3]", got)
	}
}

func TestSkipDoesNotTouchOtherFlows(t *testing.T) {
	fa := cell.Flow{In: 0, Out: 0}
	fb := cell.Flow{In: 1, Out: 0}
	b, push, skip := testBuffer(4)
	push(skipCell(fb, 2, 1)) // parks: fb waiting for 0
	skip(fa, 0)
	if _, ok := b.PopEmittable(); ok {
		t.Error("skip of one flow released another flow's parked cell")
	}
}

func TestOutputSkipDelegates(t *testing.T) {
	s := cell.NewStore(1)
	o := NewOutput(0, Eager{}, s, 4)
	f := cell.Flow{In: 0, Out: 0}
	o.buf.Push(0, s.Put(0, skipCell(f, 1, 1)))
	if o.Buffered() != 1 {
		t.Fatalf("Buffered = %d", o.Buffered())
	}
	o.Skip(skipCell(f, 0, 0))
	if c, ok := o.buf.PopEmittable(); !ok || c.FlowSeq != 1 {
		t.Errorf("PopEmittable = %v, %v", c, ok)
	}
}
