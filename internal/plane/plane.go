// Package plane models one middle-stage switch of the PPS: an N x N
// output-queued switch operating at the internal rate r, with one FIFO per
// output-port (Figure 1 of the paper). Cells are enqueued by the
// demultiplexors over the input-side lines and drained toward the PPS
// output-ports over the output-side lines; both line banks are rate-limited
// by the fabric, not by the plane itself.
//
// The plane's scheduling policy is deliberately optimal-FIFO: the
// lower-bound proofs explicitly do not depend on the planes' scheduling,
// which "may be optimal" (remark after Lemma 4) — only on the fact that
// cells are not dropped.
//
// Each queue is a 12-byte cell.List threaded through the shared columnar
// cell.Store's link column: pushing or popping moves four bytes, and no
// queue of the K·N ever allocates.
//
// A plane can be marked failed to exercise the fault-tolerance argument of
// Section 3 (static plane partitioning amplifies the damage of a single
// plane failure).
package plane

import (
	"fmt"

	"ppsim/internal/cell"
)

// Plane is one center-stage switch.
type Plane struct {
	id     cell.Plane
	n      int
	s      *cell.Store
	queues []cell.List
	total  int
	failed bool
	// peak tracks the largest per-output backlog ever observed; large
	// relative queuing delays imply large plane buffers (Section 1.2).
	peak int
}

// New returns plane id for an n x n PPS, backed by store s. It panics if
// n <= 0 or s is nil.
func New(id cell.Plane, n int, s *cell.Store) *Plane {
	if n <= 0 {
		panic(fmt.Sprintf("plane: invalid port count %d", n))
	}
	if s == nil {
		panic("plane: nil cell store")
	}
	return &Plane{id: id, n: n, s: s, queues: make([]cell.List, n)}
}

// ID returns the plane's index in the center stage.
func (p *Plane) ID() cell.Plane { return p.id }

// Ports returns N.
func (p *Plane) Ports() int { return p.n }

// Enqueue accepts a cell (by ref) switched through this plane. It returns an
// error if the plane has failed (the cell would be dropped — the fabric
// surfaces this as an execution failure, since the model forbids drops) or
// if the destination is out of range; the caller keeps ownership of the ref
// on error.
func (p *Plane) Enqueue(r cell.Ref) error {
	c := p.s.At(r)
	if p.failed {
		return fmt.Errorf("plane %d: cell %v dispatched to a failed plane", p.id, *c)
	}
	j := int(c.Flow.Out)
	if j < 0 || j >= p.n {
		return fmt.Errorf("plane %d: destination out of range: %v", p.id, *c)
	}
	p.s.PushBack(&p.queues[j], r)
	p.total++
	if l := p.queues[j].Len(); l > p.peak {
		p.peak = l
	}
	return nil
}

// QueueLen reports the backlog for output j.
func (p *Plane) QueueLen(j cell.Port) int { return p.queues[j].Len() }

// HeadRef returns the head ref for output j without removing it; ok is
// false when the queue is empty.
func (p *Plane) HeadRef(j cell.Port) (cell.Ref, bool) {
	return p.queues[j].Front()
}

// Head returns a copy of the head cell for output j (diagnostics and tests;
// the hot path uses HeadRef).
func (p *Plane) Head(j cell.Port) (cell.Cell, bool) {
	r, ok := p.HeadRef(j)
	if !ok {
		return cell.Cell{}, false
	}
	return *p.s.At(r), true
}

// Pop removes and returns the head ref for output j. It panics on an empty
// queue (a multiplexor bug).
func (p *Plane) Pop(j cell.Port) cell.Ref {
	r := p.s.PopFront(&p.queues[j])
	p.total--
	return r
}

// PopDeferred removes and returns the head ref for output j without
// updating the plane-wide backlog counter. The fabric's sharded mux stage
// uses it so concurrent per-output workers touch only their own queue; the
// caller must reconcile the counter with AddBacklogDelta after its stage
// barrier, before anything reads Backlog again.
func (p *Plane) PopDeferred(j cell.Port) cell.Ref {
	return p.s.PopFront(&p.queues[j])
}

// AddBacklogDelta adjusts the backlog counter by d (negative for pops taken
// through PopDeferred). It must only be called from a single goroutine.
func (p *Plane) AddBacklogDelta(d int) { p.total += d }

// Backlog reports the total number of cells queued in the plane.
func (p *Plane) Backlog() int { return p.total }

// PeakQueue reports the largest per-output backlog observed so far.
func (p *Plane) PeakQueue() int { return p.peak }

// Fail marks the plane failed: subsequent Enqueue calls error. Cells already
// queued continue to drain (the output lines are assumed intact). This is
// the Abort-policy failure mode; under DropCount the fabric uses FailDrop.
func (p *Plane) Fail() { p.failed = true }

// FailDrop marks the plane failed and empties every per-output queue,
// appending the removed cells to dst in ascending output order (FIFO order
// within an output) so the fabric can account them as drops. The refs are
// freed back to the store — the drop list owns plain cell copies. This is
// the DropCount-policy failure mode: the plane's memory dies with it.
func (p *Plane) FailDrop(dst []cell.Cell) []cell.Cell {
	p.failed = true
	for j := range p.queues {
		q := &p.queues[j]
		for q.Len() > 0 {
			dst = append(dst, p.s.Take(p.s.PopFront(q)))
		}
	}
	p.total = 0
	return dst
}

// Recover returns a failed plane to service: subsequent Enqueue calls
// succeed again. Under DropCount the plane rejoins empty (FailDrop emptied
// it); under Abort any backlog that survived the outage simply resumes
// normal service. Recover on a live plane is a no-op.
func (p *Plane) Recover() { p.failed = false }

// Failed reports whether the plane has been failed.
func (p *Plane) Failed() bool { return p.failed }
