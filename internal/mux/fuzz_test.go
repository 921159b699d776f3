package mux

import (
	"math/rand"
	"runtime"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/plane"
	"ppsim/internal/timing"
)

// wrapBase is a flow frontier three FlowSeqs below 2^32, so a short flow
// from it straddles the point where the cursor's 32 bits wrap.
const wrapBase = 1<<32 - 3

// FuzzBufferMatchesReference drives a NewOutputs buffer and a standalone
// one, each beside its own refBuffer, with the same stream of Push, Skip and
// PopEmittable operations over six flows of 48 FlowSeqs. A push or skip
// takes one of the eight lowest FlowSeqs its flow has not yet used, so
// cells reach the buffer out of order and drops land before, among and
// after their successors. Odd modes start every flow at a frontier just
// below 2^32. After every operation the buffer holds as many cells and drop
// records as the reference, and every pop returns the reference's cell.
func FuzzBufferMatchesReference(f *testing.F) {
	f.Add(byte(0), []byte{0, 1, 0, 0, 3, 0, 2, 2, 0, 2, 3, 0, 3, 0})
	f.Add(byte(1), []byte{0, 6, 0, 12, 2, 0, 0, 0, 3, 0, 3, 0, 1, 18, 3, 0})
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 2*600)
	rng.Read(long)
	f.Add(byte(0), long)
	f.Add(byte(1), long)
	f.Fuzz(func(t *testing.T, mode byte, ops []byte) {
		for name, build := range map[string]bufferBuilder{"shared-flowid-column": testBuffer, "standalone": standaloneBuffer} {
			matchReferenceOps(t, name, build, mode&1 == 1, ops)
		}
	})
}

func matchReferenceOps(t *testing.T, name string, build bufferBuilder, wrap bool, ops []byte) {
	const flows, length = 6, 48
	base := uint64(0)
	if wrap {
		base = wrapBase
	}
	b, push, skip, cursor := build(flows)
	m := newRefBuffer(flows)
	var pool [flows][]uint64 // FlowSeqs not yet pushed or skipped, ascending
	for in := range pool {
		cursor(cell.Flow{In: cell.Port(in)}).next = uint32(base)
		m.next[in] = base
		for fs := uint64(0); fs < length; fs++ {
			pool[in] = append(pool[in], base+fs)
		}
	}
	pops := 0
	pop := func() bool {
		got, ok := b.PopEmittable()
		want, wantOK := m.pop()
		if ok != wantOK || got.Seq != want.Seq || got.Flow != want.Flow || got.FlowSeq != want.FlowSeq {
			t.Fatalf("%s: pop %d = %v, %v; reference %v, %v", name, pops, got, ok, want, wantOK)
		}
		pops++
		return ok
	}
	check := func(op int) {
		records, skips := dropRecords(b), 0
		for _, s := range m.skips {
			skips += len(s)
		}
		if b.Len() != m.cells || records != skips {
			t.Fatalf("%s: after op %d Len = %d with %d drop records, reference %d cells and %d records",
				name, op, b.Len(), records, m.cells, skips)
		}
	}
	for k := 0; k+1 < len(ops); k += 2 {
		arg := int(ops[k+1])
		if ops[k]%4 == 3 {
			pop()
			check(k / 2)
			continue
		}
		in := arg % flows
		p := pool[in]
		if len(p) == 0 {
			continue
		}
		i := arg / flows % min(len(p), 8)
		fs := p[i]
		pool[in] = append(p[:i], p[i+1:]...)
		fl := cell.Flow{In: cell.Port(in), Out: 0}
		if ops[k]%4 == 2 {
			skip(fl, fs)
			m.skip(fl.In, fs)
		} else {
			c := cell.New((fs-base)*flows+uint64(in), fs, fl, 0)
			push(c)
			m.push(c)
		}
		check(k / 2)
	}
	for pop() {
		check(-1)
	}
	check(-1)
}

// TestCursorWrapsAt2To32 runs one flow across FlowSeq 2^32, where its
// cursor's 32 bits wrap, beside a flow starting at 0: cells arrive out of
// order, one is dropped, and the flow departs in full 64-bit FlowSeq order
// on both buffer kinds.
func TestCursorWrapsAt2To32(t *testing.T) {
	for name, build := range map[string]bufferBuilder{"shared-flowid-column": testBuffer, "standalone": standaloneBuffer} {
		b, push, skip, cursor := build(4)
		hi, lo := cell.Flow{In: 1, Out: 0}, cell.Flow{In: 2, Out: 0}
		cursor(hi).next = uint32(wrapBase)
		for _, fs := range []uint64{1<<32 + 1, 1<<32 - 1, 1 << 32, 1<<32 + 3} {
			push(cell.New(fs-wrapBase, fs, hi, 0))
		}
		push(cell.New(100, 1, lo, 0)) // parks: lo's FlowSeq 0 is missing
		skip(hi, 1<<32+2)
		if b.Len() != 5 || b.emittable != 0 {
			t.Fatalf("%s: Len %d, emittable ring %d, want 5 parked before the head lands", name, b.Len(), b.emittable)
		}
		push(cell.New(1, 1<<32-2, hi, 0))
		push(cell.New(0, wrapBase, hi, 0))
		push(cell.New(99, 0, lo, 0))
		var got []uint64
		for c, ok := b.PopEmittable(); ok; c, ok = b.PopEmittable() {
			if c.Flow == hi {
				got = append(got, c.FlowSeq)
			}
		}
		want := []uint64{1<<32 - 3, 1<<32 - 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<32 + 3}
		if len(got) != len(want) {
			t.Fatalf("%s: flow departed FlowSeqs %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: flow departed FlowSeqs %v, want %v", name, got, want)
			}
		}
		if b.Len() != 0 || cursor(hi).next != 4 || cursor(lo).next != 2 {
			t.Errorf("%s: Len %d, cursors %d and %d after the drain, want 0, 4 and 2",
				name, b.Len(), cursor(hi).next, cursor(lo).next)
		}
	}
}

// TestResequencingAllocatesOncePerOutput is the output stage's allocation
// guard at the headline geometry: N = 1024 NewOutputs outputs over K = 8
// planes each resequence an 8-cell burst through Output.Step. The burst
// sits one cell per plane in descending FlowSeq order, with its head on the
// last plane, so eager pulling parks seven cells before the head lands.
// Parked and emittable cells are threaded through the store and the outputs
// share one pull scratch, so no output allocates: the budget is a constant
// that does not grow with n (2 mallocs measured). A per-output emittable
// heap costs one malloc per output, and per-output parked tables and pull
// scratch about five more; either fails the guard.
func TestResequencingAllocatesOncePerOutput(t *testing.T) {
	const n, k, burst, budget = 1024, 8, 8, 16
	s := cell.NewStore(1)
	ids := cell.NewStamperSized(n)
	col := cell.NewColumn[Cursor](n * n)
	outs := NewOutputs(n, s, &col, make([]int32, n))
	planes := make([]*plane.Plane, k)
	for p := range planes {
		planes[p] = plane.New(cell.Plane(p), n, s)
	}
	views := make([]fakeView, n)
	for j := range views {
		views[j] = fakeView{out: cell.Port(j), s: s, ids: ids, planes: planes, gates: timing.NewMatrix(k, 1, 1)}
		f := cell.Flow{In: cell.Port(j), Out: cell.Port(j)}
		for fs := burst - 1; fs >= 0; fs-- {
			if err := views[j].enqueue(burst-1-fs, cell.New(uint64(j*burst+fs), uint64(fs), f, 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	col.GrowTo(ids.Flows().Len())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for j := range outs {
		departed := 0
		for slot := cell.Time(0); departed < burst; slot++ {
			c, ok, err := outs[j].Step(slot, &views[j])
			if err != nil {
				t.Fatalf("output %d slot %d: %v", j, slot, err)
			}
			if ok {
				if c.FlowSeq != uint64(departed) {
					t.Fatalf("output %d departed FlowSeq %d, want %d", j, c.FlowSeq, departed)
				}
				departed++
			}
			if slot > 4*burst {
				t.Fatalf("output %d stalled after %d departures", j, departed)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if s.Live() != 0 {
		t.Fatalf("%d cells left in the store", s.Live())
	}
	if got := after.Mallocs - before.Mallocs; got > budget {
		t.Errorf("resequencing %d bursts took %d mallocs, budget %d", n, got, budget)
	} else {
		t.Logf("resequencing %d bursts took %d mallocs", n, got)
	}
}
