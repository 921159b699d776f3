package cell

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewSetsSentinels(t *testing.T) {
	c := New(7, 3, Flow{In: 1, Out: 2}, 42)
	if c.Seq != 7 || c.FlowSeq != 3 {
		t.Errorf("sequence numbers: got (%d,%d), want (7,3)", c.Seq, c.FlowSeq)
	}
	if c.Arrive != 42 {
		t.Errorf("Arrive = %d, want 42", c.Arrive)
	}
	for name, v := range map[string]Time{"Dispatch": c.Dispatch, "AtOutput": c.AtOutput, "Depart": c.Depart} {
		if v != None {
			t.Errorf("%s = %d, want None", name, v)
		}
	}
	if c.Via != NoPlane {
		t.Errorf("Via = %d, want NoPlane", c.Via)
	}
}

func TestQueuingDelay(t *testing.T) {
	c := New(0, 0, Flow{}, 10)
	c.Depart = 17
	if got := c.QueuingDelay(); got != 7 {
		t.Errorf("QueuingDelay = %d, want 7", got)
	}
}

func TestQueuingDelayPanicsInFlight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for in-flight cell")
		}
	}()
	c := New(0, 0, Flow{}, 10)
	_ = c.QueuingDelay()
}

func TestFlowString(t *testing.T) {
	f := Flow{In: 3, Out: 9}
	if got := f.String(); got != "(3->9)" {
		t.Errorf("Flow.String() = %q", got)
	}
}

func TestStamperSequencing(t *testing.T) {
	s := NewStamper()
	f1 := Flow{In: 0, Out: 1}
	f2 := Flow{In: 2, Out: 1}

	a := s.Stamp(f1, 0)
	b := s.Stamp(f2, 0)
	c := s.Stamp(f1, 1)

	if a.Seq != 0 || b.Seq != 1 || c.Seq != 2 {
		t.Errorf("global seqs: %d %d %d, want 0 1 2", a.Seq, b.Seq, c.Seq)
	}
	if a.FlowSeq != 0 || b.FlowSeq != 0 || c.FlowSeq != 1 {
		t.Errorf("flow seqs: %d %d %d, want 0 0 1", a.FlowSeq, b.FlowSeq, c.FlowSeq)
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d, want 3", s.Count())
	}
	if a.FlowID != 1 || b.FlowID != 2 || c.FlowID != 1 {
		t.Errorf("flow ids: %d %d %d, want 1 2 1", a.FlowID, b.FlowID, c.FlowID)
	}
	if s.ID(f2) != 2 || s.ID(Flow{In: 3, Out: 3}) != 3 {
		t.Error("ID must return a seen flow's id and mint the next one for a new flow")
	}
}

// A sized Stamper mints the same ids as an unsized one, flows outside its
// range included (they are hashed beside the dense table, sharing the id
// sequence).
func TestStamperSizedMatchesUnsized(t *testing.T) {
	sized, plain := NewStamperSized(4), NewStamper()
	for i := 0; i < 200; i++ {
		f := Flow{In: Port(i * 7 % 5), Out: Port(i * 3 % 6)} // ports 4 and 5 are out of range
		a, b := sized.Stamp(f, Time(i)), plain.Stamp(f, Time(i))
		if a != b {
			t.Fatalf("stamp %d of %v: sized %v (id %d), unsized %v (id %d)", i, f, a, a.FlowID, b, b.FlowID)
		}
		if a.FlowID == 0 {
			t.Fatalf("stamp %d of %v carries no flow id", i, f)
		}
	}
}

// The flow id lives in the padding after Via: the cell, and so every slab of
// the columnar store, keeps its size.
func TestCellSize(t *testing.T) {
	if got := unsafe.Sizeof(Cell{}); got != 72 {
		t.Errorf("unsafe.Sizeof(Cell{}) = %d, want 72", got)
	}
}

// Property: global sequence numbers are strictly increasing and per-flow
// sequence numbers are dense (0,1,2,...) no matter the interleaving, and
// every cell of a flow carries the flow's one id.
func TestStamperProperties(t *testing.T) {
	prop := func(flowChoices []uint8) bool {
		s := NewStamper()
		perFlow := make(map[Flow]uint64)
		var lastSeq uint64
		for i, ch := range flowChoices {
			f := Flow{In: Port(ch % 4), Out: Port((ch / 4) % 4)}
			c := s.Stamp(f, Time(i))
			if i > 0 && c.Seq != lastSeq+1 {
				return false
			}
			lastSeq = c.Seq
			if c.FlowSeq != perFlow[f] || c.FlowID != s.ID(f) {
				return false
			}
			perFlow[f]++
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
