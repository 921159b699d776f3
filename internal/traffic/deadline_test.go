package traffic

import (
	"testing"

	"ppsim/internal/cell"
)

func TestWithDeadlineStampsArrivals(t *testing.T) {
	tr := NewTrace()
	tr.MustAdd(0, 0, 1)
	tr.MustAdd(3, 2, 0)
	src := WithDeadline(tr, 8)
	var buf []Arrival
	for slot := cell.Time(0); slot < src.End(); slot++ {
		buf = src.Arrivals(slot, buf[:0])
		for _, a := range buf {
			if a.Deadline != slot+8 {
				t.Fatalf("slot %d: deadline %d, want %d", slot, a.Deadline, slot+8)
			}
		}
	}
	if src.End() != tr.End() {
		t.Fatalf("End changed: %d vs %d", src.End(), tr.End())
	}
}

func TestWithDeadlinePreservesStream(t *testing.T) {
	inner := NewBernoulli(4, 0.7, 64, 7)
	plain := NewBernoulli(4, 0.7, 64, 7)
	wrapped := WithDeadline(inner, 5)
	var a, b []Arrival
	for slot := cell.Time(0); slot < 64; slot++ {
		a = plain.Arrivals(slot, a[:0])
		b = wrapped.Arrivals(slot, b[:0])
		if len(a) != len(b) {
			t.Fatalf("slot %d: %d vs %d arrivals", slot, len(a), len(b))
		}
		for i := range a {
			if a[i].In != b[i].In || a[i].Out != b[i].Out {
				t.Fatalf("slot %d arrival %d: flow changed %+v vs %+v", slot, i, a[i], b[i])
			}
			if b[i].Deadline != slot+5 {
				t.Fatalf("slot %d arrival %d: deadline %d", slot, i, b[i].Deadline)
			}
		}
	}
}

func TestWithDeadlineLookaheadForwarding(t *testing.T) {
	// A batch inner keeps AppendArrivals — read-ahead, and with it the event
	// core; the deadline-* rows of batchTwinCases check the stream itself...
	if _, ok := WithDeadline(NewBernoulli(2, 0.3, 128, 3), 4).(BatchSource); !ok {
		t.Fatal("BatchSource inner lost the capability through WithDeadline")
	}
	// ...and a per-slot inner must not falsely qualify: the feed would read
	// it ahead of its slot.
	if _, ok := WithDeadline(opaque{NewTrace()}, 4).(BatchSource); ok {
		t.Fatal("per-slot inner falsely satisfies BatchSource through WithDeadline")
	}
}

// opaque hides a source's BatchSource capability.
type opaque struct{ src Source }

func (o opaque) Arrivals(t cell.Time, dst []Arrival) []Arrival { return o.src.Arrivals(t, dst) }
func (o opaque) End() cell.Time                                { return o.src.End() }

func TestWithDeadlineNestedKeepsTighter(t *testing.T) {
	tr := NewTrace()
	tr.MustAdd(2, 0, 0)
	src := WithDeadline(WithDeadline(tr, 3), 9)
	buf := src.Arrivals(2, nil)
	if len(buf) != 1 || buf[0].Deadline != 5 {
		t.Fatalf("nested wrapper overwrote the inner deadline: %+v", buf)
	}
}

func TestWithDeadlinePanicsOnBadOffset(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithDeadline(src, 0) did not panic")
		}
	}()
	WithDeadline(NewTrace(), 0)
}
