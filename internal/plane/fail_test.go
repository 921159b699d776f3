package plane

import (
	"math/rand"
	"testing"

	"ppsim/internal/cell"
)

func TestFailDropDrainsEverything(t *testing.T) {
	b := newBank(0, 4)
	var seq uint64
	push := func(out cell.Port) {
		c := cell.New(seq, seq, cell.Flow{In: 0, Out: out}, 0)
		seq++
		if err := b.enqueue(c); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave outputs so FIFO-within-output and ascending-output order
	// are distinguishable in the drained slice.
	push(2)
	push(0)
	push(2)
	push(1)
	dropped := b.p.FailDrop(nil)
	if !b.p.Failed() {
		t.Fatal("FailDrop left the plane live")
	}
	if b.p.Backlog() != 0 {
		t.Errorf("Backlog = %d after FailDrop", b.p.Backlog())
	}
	if b.s.Live() != 0 {
		t.Errorf("store still holds %d live refs after FailDrop", b.s.Live())
	}
	wantOut := []cell.Port{0, 1, 2, 2}
	wantSeq := []uint64{1, 3, 0, 2}
	if len(dropped) != len(wantOut) {
		t.Fatalf("FailDrop returned %d cells, want %d", len(dropped), len(wantOut))
	}
	for i, c := range dropped {
		if c.Flow.Out != wantOut[i] || c.Seq != wantSeq[i] {
			t.Errorf("dropped[%d] = out %d seq %d, want out %d seq %d",
				i, c.Flow.Out, c.Seq, wantOut[i], wantSeq[i])
		}
	}
	if err := b.enqueue(cell.New(99, 0, cell.Flow{Out: 0}, 0)); err == nil {
		t.Error("failed plane accepted a cell")
	}
}

func TestFailDropAppendsToDst(t *testing.T) {
	b := newBank(1, 2)
	if err := b.enqueue(cell.New(0, 0, cell.Flow{Out: 1}, 0)); err != nil {
		t.Fatal(err)
	}
	scratch := make([]cell.Cell, 0, 8)
	scratch = append(scratch, cell.New(7, 7, cell.Flow{}, 0))
	out := b.p.FailDrop(scratch)
	if len(out) != 2 || out[0].Seq != 7 || out[1].Seq != 0 {
		t.Errorf("FailDrop did not append to dst: %v", out)
	}
}

func TestRecoverRejoinsEmpty(t *testing.T) {
	b := newBank(0, 2)
	if err := b.enqueue(cell.New(0, 0, cell.Flow{Out: 0}, 0)); err != nil {
		t.Fatal(err)
	}
	b.p.FailDrop(nil)
	b.p.Recover()
	if b.p.Failed() {
		t.Fatal("Recover left the plane failed")
	}
	if b.p.Backlog() != 0 {
		t.Errorf("recovered plane backlog = %d, want 0", b.p.Backlog())
	}
	if err := b.enqueue(cell.New(1, 1, cell.Flow{Out: 1}, 5)); err != nil {
		t.Errorf("recovered plane rejected a cell: %v", err)
	}
	// Recover on a live plane is a no-op.
	b.p.Recover()
	if b.p.Failed() || b.p.Backlog() != 1 {
		t.Error("no-op Recover perturbed the plane")
	}
}

// TestFailDropOrderWithInterleavedPlanes fills two planes over one store
// in a random interleaving, so their queues' links alternate through the
// same link column, then fails one: its cells drain in ascending output
// order, FIFO within each output, and the other plane's queues are intact.
func TestFailDropOrderWithInterleavedPlanes(t *testing.T) {
	const n = 5
	s := cell.NewStore(1)
	planes := [2]*Plane{New(0, n, s), New(1, n, s)}
	var model [2][n][]uint64
	rng := rand.New(rand.NewSource(5))
	for seq := uint64(0); seq < 200; seq++ {
		k, out := rng.Intn(2), rng.Intn(n)
		if err := planes[k].Enqueue(s.Put(0, mk(seq, cell.Port(out)))); err != nil {
			t.Fatal(err)
		}
		model[k][out] = append(model[k][out], seq)
		if rng.Intn(4) == 0 { // free a departed cell, so Puts reuse slots
			k, out := rng.Intn(2), rng.Intn(n)
			if len(model[k][out]) > 0 {
				s.Free(planes[k].Pop(cell.Port(out)))
				model[k][out] = model[k][out][1:]
			}
		}
	}
	var want []uint64
	for out := 0; out < n; out++ {
		want = append(want, model[0][out]...)
	}
	dropped := planes[0].FailDrop(nil)
	if len(dropped) != len(want) {
		t.Fatalf("FailDrop returned %d cells, want %d", len(dropped), len(want))
	}
	for i, c := range dropped {
		if c.Seq != want[i] {
			t.Fatalf("dropped[%d].Seq = %d, want %d", i, c.Seq, want[i])
		}
	}
	for out := 0; out < n; out++ {
		for _, seq := range model[1][out] {
			if c := s.Take(planes[1].Pop(cell.Port(out))); c.Seq != seq {
				t.Fatalf("plane 1 output %d popped seq %d, want %d", out, c.Seq, seq)
			}
		}
	}
	if s.Live() != 0 || planes[1].Backlog() != 0 {
		t.Errorf("Live = %d, plane 1 backlog = %d after draining", s.Live(), planes[1].Backlog())
	}
}
