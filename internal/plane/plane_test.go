package plane

import (
	"testing"
	"testing/quick"

	"ppsim/internal/cell"
)

// bank bundles a store with a plane so tests can enqueue plain cells.
type bank struct {
	s *cell.Store
	p *Plane
}

func newBank(id cell.Plane, n int) *bank {
	s := cell.NewStore(1)
	return &bank{s: s, p: New(id, n, s)}
}

func (b *bank) enqueue(c cell.Cell) error {
	r := b.s.Put(0, c)
	if err := b.p.Enqueue(r); err != nil {
		b.s.Free(r)
		return err
	}
	return nil
}

func (b *bank) pop(j cell.Port) cell.Cell { return b.s.Take(b.p.Pop(j)) }

func mk(seq uint64, out cell.Port) cell.Cell {
	return cell.New(seq, 0, cell.Flow{In: 0, Out: out}, 0)
}

func TestEnqueuePopFIFO(t *testing.T) {
	b := newBank(0, 4)
	p := b.p
	for i := uint64(0); i < 5; i++ {
		if err := b.enqueue(mk(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if p.QueueLen(2) != 5 || p.Backlog() != 5 {
		t.Fatalf("QueueLen=%d Backlog=%d", p.QueueLen(2), p.Backlog())
	}
	h, ok := p.Head(2)
	if !ok || h.Seq != 0 {
		t.Errorf("Head = %v %v", h, ok)
	}
	if r, ok := p.HeadRef(2); !ok || b.s.At(r).Seq != 0 {
		t.Errorf("HeadRef = %v %v", r, ok)
	}
	for i := uint64(0); i < 5; i++ {
		if c := b.pop(2); c.Seq != i {
			t.Errorf("Pop = %d, want %d", c.Seq, i)
		}
	}
	if _, ok := p.Head(2); ok {
		t.Error("Head on empty queue should report !ok")
	}
	if p.Backlog() != 0 || b.s.Live() != 0 {
		t.Errorf("backlog %d / live %d should be zero", p.Backlog(), b.s.Live())
	}
}

func TestQueuesAreIndependent(t *testing.T) {
	b := newBank(1, 3)
	b.enqueue(mk(0, 0))
	b.enqueue(mk(1, 2))
	if b.p.QueueLen(0) != 1 || b.p.QueueLen(1) != 0 || b.p.QueueLen(2) != 1 {
		t.Error("queues must be independent per output")
	}
}

func TestEnqueueRangeCheck(t *testing.T) {
	b := newBank(0, 2)
	if err := b.enqueue(mk(0, 5)); err == nil {
		t.Error("out-of-range destination must error")
	}
	if b.s.Live() != 0 {
		t.Error("rejected cell must not stay live in the store")
	}
}

func TestFailurePreventsEnqueueNotDrain(t *testing.T) {
	b := newBank(0, 2)
	b.enqueue(mk(0, 1))
	b.p.Fail()
	if !b.p.Failed() {
		t.Error("Failed should report true")
	}
	if err := b.enqueue(mk(1, 1)); err == nil {
		t.Error("enqueue to failed plane must error")
	}
	if c := b.pop(1); c.Seq != 0 {
		t.Error("queued cells must still drain after failure")
	}
}

func TestPeakQueue(t *testing.T) {
	b := newBank(0, 2)
	for i := uint64(0); i < 7; i++ {
		b.enqueue(mk(i, 0))
	}
	b.pop(0)
	b.pop(0)
	b.enqueue(mk(7, 0))
	if b.p.PeakQueue() != 7 {
		t.Errorf("PeakQueue = %d, want 7", b.p.PeakQueue())
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, 0, cell.NewStore(1))
}

func TestNewNilStorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, 2, nil)
}

// Property: per-output FIFO order is preserved for any enqueue pattern.
func TestPerOutputOrder(t *testing.T) {
	prop := func(dests []uint8) bool {
		const n = 4
		b := newBank(0, n)
		want := make([][]uint64, n)
		for i, d := range dests {
			out := cell.Port(d % n)
			if err := b.enqueue(mk(uint64(i), out)); err != nil {
				return false
			}
			want[out] = append(want[out], uint64(i))
		}
		for j := 0; j < n; j++ {
			for _, w := range want[j] {
				if c := b.pop(cell.Port(j)); c.Seq != w {
					return false
				}
			}
			if b.p.QueueLen(cell.Port(j)) != 0 {
				return false
			}
		}
		return b.p.Backlog() == 0 && b.s.Live() == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestFirstPushAllocatesNothing pushes one ref into each of the K·N plane
// queues of a store already warmed to K·N cells: a queue is a list threaded
// through the store's link column, so no queue allocates on first use.
// testing.AllocsPerRun runs the pushes with GOMAXPROCS pinned to 1, and each
// of its calls (one warm-up, then the measured runs) gets its own store and
// planes, built beforehand, so every measured push is a first push.
func TestFirstPushAllocatesNothing(t *testing.T) {
	const n, k, runs = 64, 8, 4
	type fixture struct {
		s      *cell.Store
		planes []*Plane
	}
	fixtures := make([]fixture, runs+1)
	for f := range fixtures {
		s := cell.NewStore(1)
		refs := make([]cell.Ref, 0, n*k)
		for i := 0; i < n*k; i++ {
			refs = append(refs, s.Put(0, mk(uint64(i), 0)))
		}
		for _, r := range refs {
			s.Free(r)
		}
		planes := make([]*Plane, k)
		for i := range planes {
			planes[i] = New(cell.Plane(i), n, s)
		}
		fixtures[f] = fixture{s, planes}
	}
	calls := 0
	allocs := testing.AllocsPerRun(runs, func() {
		x := fixtures[calls]
		calls++
		for _, p := range x.planes {
			for j := 0; j < n; j++ {
				if err := p.Enqueue(x.s.Put(0, mk(uint64(j), cell.Port(j)))); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if allocs != 0 {
		t.Errorf("first push into %d plane queues allocated %.0f times, want 0", n*k, allocs)
	}
	if calls != len(fixtures) {
		t.Fatalf("AllocsPerRun made %d calls, want %d", calls, len(fixtures))
	}
	for _, x := range fixtures {
		for _, p := range x.planes {
			for j := 0; j < n; j++ {
				x.s.Free(p.Pop(cell.Port(j)))
			}
		}
		if x.s.Live() != 0 {
			t.Errorf("Live = %d after draining", x.s.Live())
		}
	}
}
