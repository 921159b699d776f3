package mux

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"ppsim/internal/cell"
	"ppsim/internal/plane"
	"ppsim/internal/timing"
)

// fakeView adapts one output's slice of a plane bank for tests, speaking
// the batched PlaneView protocol over a single-shard store.
type fakeView struct {
	out    cell.Port
	s      *cell.Store
	ids    *cell.Stamper // mints the flow ids of hand-built cells
	planes []*plane.Plane
	gates  *timing.Matrix // rows = planes, cols = 1
}

func newFakeView(out cell.Port, k, n int, hold int64) *fakeView {
	fv := &fakeView{out: out, s: cell.NewStore(1), ids: cell.NewStamper(), gates: timing.NewMatrix(k, 1, hold)}
	for i := 0; i < k; i++ {
		fv.planes = append(fv.planes, plane.New(cell.Plane(i), n, fv.s))
	}
	return fv
}

// enqueue gives c its flow's id, stores it and queues its ref on plane k.
func (f *fakeView) enqueue(k int, c cell.Cell) error {
	c.FlowID = f.ids.ID(c.Flow)
	return f.planes[k].Enqueue(f.s.Put(0, c))
}

func (f *fakeView) Planes() int { return len(f.planes) }

func (f *fakeView) Eligible(t cell.Time, dst []Head) []Head {
	for k, pl := range f.planes {
		r, ok := pl.HeadRef(f.out)
		if !ok || !f.gates.Gate(k, 0).Free(t) {
			continue
		}
		dst = append(dst, Head{K: cell.Plane(k), Seq: f.s.At(r).Seq})
	}
	return dst
}

func (f *fakeView) Take(t cell.Time, k cell.Plane) (cell.Ref, error) {
	if err := f.gates.Gate(int(k), 0).Seize(t); err != nil {
		return 0, err
	}
	return f.planes[k].Pop(f.out), nil
}

func (f *fakeView) PullBatch(t cell.Time, heads []Head, dst []cell.Ref) ([]cell.Ref, error) {
	for _, h := range heads {
		r, err := f.Take(t, h.K)
		if err != nil {
			return dst, err
		}
		dst = append(dst, r)
	}
	return dst, nil
}

// mk builds a cell on its own flow (input = seq), so resequencing never
// parks it; tests that exercise parking build same-flow cells explicitly.
func mk(seq uint64, out cell.Port) cell.Cell {
	return cell.New(seq, 0, cell.Flow{In: cell.Port(seq), Out: out}, 0)
}

// testBuffer returns a buffer over its own store whose cursors sit in a
// shared FlowID-indexed column, as the fabric's outputs' do, plus push and
// skip helpers taking plain cells and a helper returning a flow's cursor:
// each cell gets its flow's id from a Stamper, and the column grows to
// cover it first, as the fabric grows it at arrival.
func testBuffer(n int) (*Buffer, func(cell.Cell), func(cell.Flow, uint64), func(cell.Flow) *Cursor) {
	s := cell.NewStore(1)
	ids := cell.NewStamperSized(n)
	col := cell.NewColumn[Cursor](n * n)
	b := &NewOutputs(1, s, &col, []int32{0})[0].buf
	stamp := func(c cell.Cell) cell.Cell {
		c.FlowID = ids.ID(c.Flow)
		col.GrowTo(int(c.FlowID))
		return c
	}
	return b, func(c cell.Cell) { b.Push(0, s.Put(0, stamp(c))) },
		func(f cell.Flow, fs uint64) { b.Skip(stamp(cell.New(0, fs, f, 0))) },
		func(f cell.Flow) *Cursor { c := stamp(cell.New(0, 0, f, 0)); _, cur := b.flow(&c); return cur }
}

// standaloneBuffer is testBuffer over a standalone output's buffer, whose
// own column is indexed by input-port; the cells carry no flow id.
func standaloneBuffer(n int) (*Buffer, func(cell.Cell), func(cell.Flow, uint64), func(cell.Flow) *Cursor) {
	s := cell.NewStore(1)
	b := &NewOutput(0, Eager{}, s, n).buf
	return b, func(c cell.Cell) { b.Push(0, s.Put(0, c)) },
		func(f cell.Flow, fs uint64) { b.Skip(cell.New(0, fs, f, 0)) },
		func(f cell.Flow) *Cursor { c := cell.New(0, 0, f, 0); _, cur := b.flow(&c); return cur }
}

// dropRecords reports the drop records held in b's scratch, which it shares
// with the other outputs of its shard.
func dropRecords(b *Buffer) int {
	if b.sc == nil {
		return 0
	}
	return b.sc.drops.Len()
}

func TestBufferOrdersBySeq(t *testing.T) {
	b, push, _, _ := testBuffer(16)
	for _, s := range []uint64{5, 1, 9, 0, 3} {
		push(mk(s, 0))
	}
	want := []uint64{0, 1, 3, 5, 9}
	for _, w := range want {
		c, ok := b.PopEmittable()
		if !ok || c.Seq != w {
			t.Errorf("PopEmittable = %d (%v), want %d", c.Seq, ok, w)
		}
	}
	if _, ok := b.PopEmittable(); ok {
		t.Error("PopEmittable on empty should be !ok")
	}
}

func TestBufferResequencesWithinFlow(t *testing.T) {
	// Cells 0,1,2 of one flow arrive out of order: 2 first, then 0, then
	// 1. The buffer must emit 0, 1, 2 and park until predecessors depart.
	f := cell.Flow{In: 3, Out: 0}
	b, push, _, _ := testBuffer(8)
	push(cell.New(12, 2, f, 0))
	if _, ok := b.PopEmittable(); ok {
		t.Fatal("FlowSeq 2 must be parked before 0 and 1 departed")
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d", b.Len())
	}
	push(cell.New(10, 0, f, 0))
	c, ok := b.PopEmittable()
	if !ok || c.FlowSeq != 0 {
		t.Fatalf("want FlowSeq 0, got %v %v", c, ok)
	}
	// FlowSeq 2 is still parked (1 missing).
	if _, ok := b.PopEmittable(); ok {
		t.Fatal("FlowSeq 2 must still wait for 1")
	}
	push(cell.New(11, 1, f, 0))
	c, _ = b.PopEmittable()
	if c.FlowSeq != 1 {
		t.Fatalf("want FlowSeq 1, got %v", c)
	}
	c, ok = b.PopEmittable()
	if !ok || c.FlowSeq != 2 {
		t.Fatalf("parked successor not released: %v %v", c, ok)
	}
	if b.Len() != 0 {
		t.Errorf("Len = %d after drain", b.Len())
	}
}

func TestBufferInterleavesFlowsGlobalFCFS(t *testing.T) {
	fa := cell.Flow{In: 0, Out: 0}
	fb := cell.Flow{In: 1, Out: 0}
	b, push, _, _ := testBuffer(8)
	push(cell.New(3, 0, fb, 0))
	push(cell.New(1, 0, fa, 0))
	push(cell.New(4, 1, fa, 0))
	got := []uint64{}
	for {
		c, ok := b.PopEmittable()
		if !ok {
			break
		}
		got = append(got, c.Seq)
	}
	want := []uint64{1, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("emission order %v, want %v", got, want)
		}
	}
}

func TestBufferFreesRefsOnPop(t *testing.T) {
	s := cell.NewStore(1)
	b := &NewOutput(0, Eager{}, s, 4).buf
	b.Push(0, s.Put(0, mk(0, 0)))
	b.Push(0, s.Put(0, mk(1, 0)))
	if s.Live() != 2 {
		t.Fatalf("Live = %d before pops", s.Live())
	}
	b.PopEmittable()
	b.PopEmittable()
	if s.Live() != 0 {
		t.Errorf("Live = %d after drain; buffer leaked refs", s.Live())
	}
}

func TestEagerPullsAllFreePlanes(t *testing.T) {
	fv := newFakeView(0, 3, 2, 2)
	fv.enqueue(0, mk(0, 0))
	fv.enqueue(1, mk(1, 0))
	fv.enqueue(2, mk(2, 0))
	o := NewOutput(0, Eager{}, fv.s, 32)
	c, ok, err := o.Step(0, fv)
	if err != nil || !ok {
		t.Fatalf("Step: %v %v", ok, err)
	}
	if c.Seq != 0 || c.Depart != 0 {
		t.Errorf("first departure %v", c)
	}
	// All three were pulled into the buffer; two remain.
	if o.Buffered() != 2 {
		t.Errorf("Buffered = %d, want 2", o.Buffered())
	}
	// Gates are now busy (hold=2): slot 1 pulls nothing but emits.
	c, ok, _ = o.Step(1, fv)
	if !ok || c.Seq != 1 {
		t.Errorf("second departure %v %v", c, ok)
	}
}

func TestOutputConstraintLimitsDrainRate(t *testing.T) {
	// c cells concentrated in one plane with hold r' drain one per r'
	// slots — the Lemma 4 mechanism.
	const rPrime, c = 3, 4
	fv := newFakeView(0, 1, 2, rPrime)
	for i := uint64(0); i < c; i++ {
		fv.enqueue(0, mk(i, 0))
	}
	o := NewOutput(0, Eager{}, fv.s, 32)
	var departs []cell.Time
	for slot := cell.Time(0); slot < 20 && len(departs) < c; slot++ {
		if dc, ok, err := o.Step(slot, fv); err != nil {
			t.Fatal(err)
		} else if ok {
			departs = append(departs, dc.Depart)
		}
	}
	want := []cell.Time{0, rPrime, 2 * rPrime, 3 * rPrime}
	for i := range want {
		if departs[i] != want[i] {
			t.Errorf("departure %d at slot %d, want %d", i, departs[i], want[i])
		}
	}
}

func TestOutputRejectsForeignCell(t *testing.T) {
	fv := newFakeView(1, 1, 2, 1)
	fv.enqueue(0, mk(0, 1))
	o := NewOutput(0, Eager{}, fv.s, 32) // output 0 draining output 1's view: miswired
	// fakeView serves queue for its own out=1, so the pulled cell is for
	// output 1 while o believes it is output 0.
	if _, _, err := o.Step(0, fv); err == nil {
		t.Error("miswired cell must be rejected")
	}
}

func TestUtilization(t *testing.T) {
	fv := newFakeView(0, 1, 2, 1)
	o := NewOutput(0, Eager{}, fv.s, 32)
	if o.Utilization() != 0 {
		t.Error("idle output utilization should be 0")
	}
	fv.enqueue(0, mk(0, 0))
	o.Step(0, fv)
	// Idle gap.
	o.Step(1, fv)
	o.Step(2, fv)
	fv.enqueue(0, mk(1, 0))
	o.Step(3, fv)
	// busy 2 of span 4 slots.
	if got := o.Utilization(); got != 0.5 {
		t.Errorf("Utilization = %f, want 0.5", got)
	}
	if o.busySlots != 2 {
		t.Errorf("busySlots = %d", o.busySlots)
	}
}

func TestNewOutputNilStorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewOutput(0, Eager{}, nil, 2)
}

func TestNewOutputZeroPortsPanics(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewOutput accepted n = %d", n)
				}
			}()
			NewOutput(0, Eager{}, cell.NewStore(1), n)
		}()
	}
}

// TestNewOutputsMatchesNewOutput: the slab holds, at index j, exactly the
// output NewOutput(j, ...) builds except that its cursors live in the shared
// column and its pull scratch is its shard's, and it panics on a nil
// column, on zero ports and on a shard map of the wrong length.
func TestNewOutputsMatchesNewOutput(t *testing.T) {
	const n = 5
	s := cell.NewStore(2)
	col := cell.NewColumn[Cursor](n * n)
	outShard := []int32{0, 0, 1, 1, 1}
	outs := NewOutputs(n, s, &col, outShard)
	if len(outs) != n {
		t.Fatalf("NewOutputs built %d outputs, want %d", len(outs), n)
	}
	for j := range outs {
		if outs[j].buf.next != &col || outs[j].buf.byInput {
			t.Errorf("output %d does not resequence in the shared FlowID column", j)
		}
		for i := range outs {
			if same := outs[i].buf.sc == outs[j].buf.sc; same != (outShard[i] == outShard[j]) || outs[j].buf.sc == nil {
				t.Errorf("outputs %d and %d (shards %d, %d) share a pull scratch: %v", i, j, outShard[i], outShard[j], same)
			}
		}
		want := NewOutput(cell.Port(j), Eager{}, s, n)
		want.buf.next, want.buf.byInput, want.buf.sc = &col, false, outs[j].buf.sc
		if !reflect.DeepEqual(&outs[j], want) {
			t.Errorf("output %d = %+v, NewOutput gives %+v", j, outs[j], *want)
		}
	}
	for name, build := range map[string]func(){
		"nil column":      func() { NewOutputs(n, s, nil, outShard) },
		"zero ports":      func() { NewOutputs(0, s, &col, nil) },
		"short shard map": func() { NewOutputs(n, s, &col, outShard[1:]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewOutputs accepted a %s", name)
				}
			}()
			build()
		}()
	}
}

// Property: with eager pulling and hold 1, departures are exactly in global
// sequence order, one per slot, regardless of which planes cells sit in.
func TestEagerFCFSDepartureOrder(t *testing.T) {
	prop := func(assign []uint8) bool {
		const k = 4
		fv := newFakeView(0, k, 2, 1)
		seqs := make([]uint64, 0, len(assign))
		for i, a := range assign {
			if i >= 24 {
				break
			}
			fv.enqueue(int(a%k), mk(uint64(i), 0))
			seqs = append(seqs, uint64(i))
		}
		o := NewOutput(0, Eager{}, fv.s, 32)
		var got []uint64
		for slot := cell.Time(0); slot < 100 && len(got) < len(seqs); slot++ {
			if c, ok, err := o.Step(slot, fv); err != nil {
				return false
			} else if ok {
				got = append(got, c.Seq)
			}
		}
		if len(got) != len(seqs) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
