// Package mux implements the PPS output-ports: the multiplexors that pull
// cells from the plane queues over the rate-r output-side lines and emit
// them on the external line at rate R.
//
// The multiplexor enforces the global FCFS discipline of the reference
// switch: among cells present in the output-port buffer, the one that
// arrived to the PPS earliest (globally, across inputs) departs first. Two
// pull policies are provided; their comparison is one of the ablations
// called out in DESIGN.md §5:
//
//   - Eager: every slot, pull the head of every plane queue whose output
//     line is free. The aggregate inflow to an output can reach S*R, which
//     the model permits (the speedup is exactly the ratio of aggregate
//     internal capacity to the external line).
//   - BoundedEager: every slot, pull at most Max of those heads, earliest
//     first; Max = 1 is lazy FCFS (one pull per slot).
//
// Cells are addressed by cell.Ref into the shared columnar cell.Store
// (DESIGN.md §13): the view hands the policies a batch of eligible plane
// heads in one call, the policy takes the refs it wants in one call, and
// the resequencer files {key, ref} pairs without touching the cell bodies.
package mux

import (
	"fmt"

	"ppsim/internal/cell"
	"ppsim/internal/queue"
)

// Head is one eligible plane head as reported by PlaneView.Eligible: the
// plane and the global sequence number of its head cell (the only field the
// pull policies order by).
type Head struct {
	K   cell.Plane
	Seq uint64
}

// PlaneView is the fabric-provided view of the center stage restricted to
// one output-port: the per-plane queues destined to that output and the
// output-side line gates. The protocol is batched: one Eligible call per
// slot surfaces every pullable head, then one Take (or a single PullBatch)
// per selection — two interface crossings per output-slot for the eager
// policy instead of four per cell.
type PlaneView interface {
	// Planes returns K.
	Planes() int
	// Eligible appends, in ascending plane order, a Head for every plane
	// whose queue for this output is non-empty and whose output-side line
	// is free at slot t.
	Eligible(t cell.Time, dst []Head) []Head
	// Take seizes plane k's line at t and pops its head ref. Within one
	// slot a plane can be taken at most once (the seize holds the line for
	// r' >= 1 slots), so the Eligible set never goes stale mid-slot except
	// for the entries already taken.
	Take(t cell.Time, k cell.Plane) (cell.Ref, error)
	// PullBatch takes every listed head in order, appending the popped
	// refs to dst. On a gate violation it returns the refs taken so far
	// together with the error; the caller still owns those refs.
	PullBatch(t cell.Time, heads []Head, dst []cell.Ref) ([]cell.Ref, error)
}

// Policy selects which plane queues to drain each slot.
type Policy interface {
	// Pull moves zero or more cells from the planes into the buffer.
	Pull(t cell.Time, pv PlaneView, buf *Buffer) error
}

// Eager pulls from every free line with a pending cell.
type Eager struct{}

// Pull implements Policy: every eligible head is taken, in ascending plane
// order, in a single batch.
func (Eager) Pull(t cell.Time, pv PlaneView, buf *Buffer) error {
	heads := pv.Eligible(t, buf.heads[:0])
	buf.heads = heads
	if len(heads) == 0 {
		return nil
	}
	refs, err := pv.PullBatch(t, heads, buf.refs[:0])
	buf.refs = refs
	// Push whatever was taken even on error, so every popped cell is
	// accounted in the buffer before the violation aborts the run.
	buf.pushBatch(t, refs)
	return err
}

// BoundedEager pulls at most Max cells per slot, earliest heads first — the
// dial between lazy FCFS (Max = 1) and Eager (Max >= K). It models an
// output-port whose reassembly memory bandwidth admits fewer than S*R
// writes per slot, and quantifies how much of the eager policy's advantage
// survives at each budget (ablation, DESIGN.md §5).
type BoundedEager struct {
	// Max is the per-slot pull budget (>= 1).
	Max int
}

// Pull implements Policy. One Eligible scan suffices: a take only busies
// the taken plane's own line and pops its own head, so the remaining
// entries stay eligible — selecting the minimum-Seq survivor per round over
// the snapshot is exactly the historical rescan loop.
func (p BoundedEager) Pull(t cell.Time, pv PlaneView, buf *Buffer) error {
	if p.Max < 1 {
		return fmt.Errorf("mux: bounded-eager budget must be >= 1, got %d", p.Max)
	}
	heads := pv.Eligible(t, buf.heads[:0])
	buf.heads = heads
	for pulled := 0; pulled < p.Max; pulled++ {
		best := -1
		for i := range heads {
			if heads[i].K < 0 {
				continue // already taken this slot
			}
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
		heads[best].K = -1
		buf.Push(t, r)
	}
	return nil
}

// Buffer is the output-port resequencing buffer. The PPS must preserve the
// order of cells within a flow, but cells of one flow switched through
// different planes can reach the output out of order; the buffer therefore
// *parks* a cell whose per-flow predecessor has not yet departed, and emits
// — among the in-order ("emittable") cells — the one that arrived to the
// switch earliest (global FCFS, matching the reference discipline). The
// waiting this induces is genuine resequencing delay and is charged to the
// PPS, as the paper's relative-delay accounting requires.
//
// Every flow that can reach an output shares that output, so parked cells
// are keyed by the input-port alone. The only question ever asked of them is
// "is (in, FlowSeq) here?", a point lookup: they live in one hash table per
// output, and so do the dropped FlowSeqs the flow must step over.
//
// Each flow's cursor — the next FlowSeq it may emit — lives in a
// cell.Column. The fabric's outputs share one column indexed by FlowID-1
// (NewOutputs), so the cursors cost one word per flow the run carries. A
// standalone buffer (NewBuffer, NewOutput) owns an n-entry column indexed by
// the input-port instead: its flows are exactly one per input, and a
// FlowID-indexed column of its own would be sized to the whole switch's flow
// count.
type Buffer struct {
	s *cell.Store

	emittable *queue.Heap[entry]   // keyed by Seq (global FCFS); nil until the first Push
	next      *cell.Column[uint64] // flow cursors: the next FlowSeq each flow may emit
	byInput   bool                 // standalone: next is indexed by Flow.In, not FlowID-1
	parked    queue.SeqTable       // (In, FlowSeq) -> ref of a cell waiting for its predecessor
	// drops holds the (In, FlowSeq) keys the fabric reported dropped ahead
	// of the flow's frontier (failed planes, DropCount policy): a parked
	// cell must not wait forever for a predecessor that will never be
	// delivered. A record waits for the flow's frontier to reach it and is
	// not a cell: Len does not count it, so an output holding only records
	// is idle. Nil until the first such Skip, which keeps an Output the
	// size it was before the tables (fabric.New builds N of them).
	drops *queue.SeqTable

	// heads and refs are the pull policies' per-slot scratch, owned by the
	// buffer so policies stay stateless values.
	heads []Head
	refs  []cell.Ref
}

// entry is one emittable-heap element: the global Seq alongside the ref, so
// sift operations never dereference the store.
type entry struct {
	key uint64
	ref cell.Ref
}

func byKey(a, b entry) bool { return a.key < b.key }

// NewBuffer returns a standalone resequencing buffer for one output of an
// n-port switch over store s.
func NewBuffer(s *cell.Store, n int) *Buffer {
	if s == nil || n <= 0 {
		panic(fmt.Sprintf("mux: buffer needs a store and n > 0 (n=%d)", n))
	}
	return &Buffer{s: s, next: ownCursors(n), byInput: true}
}

// ownCursors is a standalone buffer's input-indexed cursor column: n
// entries, one page up to n = 4096.
func ownCursors(n int) *cell.Column[uint64] {
	col := cell.NewColumn[uint64](n)
	col.GrowTo(n)
	return &col
}

// cursor returns c's flow cursor. A shared column was grown to c's FlowID by
// its owner before the cell was pushed.
func (b *Buffer) cursor(c *cell.Cell) *uint64 {
	i := int(c.FlowID) - 1
	if b.byInput {
		i = int(c.Flow.In)
	}
	return b.next.At(i)
}

// Push inserts a cell delivered by a plane at slot t, stamping AtOutput.
func (b *Buffer) Push(t cell.Time, r cell.Ref) {
	if b.emittable == nil {
		b.emittable = queue.NewHeap(byKey)
	}
	c := b.s.At(r)
	c.AtOutput = t
	if c.FlowSeq == *b.cursor(c) {
		b.emittable.Push(entry{key: c.Seq, ref: r})
		return
	}
	b.parked.Put(int32(c.Flow.In), c.FlowSeq, uint32(r))
}

// pushBatch inserts every ref in order (the batched form of Push).
func (b *Buffer) pushBatch(t cell.Time, refs []cell.Ref) {
	for _, r := range refs {
		b.Push(t, r)
	}
}

// Len reports the number of buffered cells (emittable and parked).
func (b *Buffer) Len() int {
	if b.emittable == nil {
		return 0
	}
	return b.emittable.Len() + b.parked.Len()
}

// Skip records that cell c was dropped inside the switch (a failed plane
// under the DropCount policy) and will never be delivered: the resequencer
// treats its FlowSeq as already departed, so successors do not park forever
// behind the gap. Skips may arrive in any order relative to the flow's
// progression and to each other.
func (b *Buffer) Skip(c cell.Cell) {
	next := b.cursor(&c)
	if c.FlowSeq != *next {
		if b.drops == nil {
			b.drops = new(queue.SeqTable)
		}
		b.drops.Put(int32(c.Flow.In), c.FlowSeq, 0)
		return
	}
	*next = c.FlowSeq + 1
	b.advance(c.Flow.In, next)
}

// advance moves input in's flow on from a cursor *next that was just bumped:
// it releases the parked cell now in order, if there is one, and otherwise
// steps over every consecutive dropped FlowSeq to look again.
func (b *Buffer) advance(in cell.Port, next *uint64) {
	for {
		if r, ok := b.parked.Take(int32(in), *next); ok {
			b.emittable.Push(entry{key: b.s.At(cell.Ref(r)).Seq, ref: cell.Ref(r)})
			return
		}
		if b.drops == nil {
			return
		}
		if _, dropped := b.drops.Take(int32(in), *next); !dropped {
			return
		}
		*next++
	}
}

// PopEmittable removes and returns the earliest in-order cell (freeing its
// ref back to the store); ok is false when every buffered cell is waiting
// for a predecessor (or the buffer is empty).
func (b *Buffer) PopEmittable() (cell.Cell, bool) {
	if b.emittable == nil || b.emittable.Empty() {
		return cell.Cell{}, false
	}
	c := b.s.Take(b.emittable.Pop().ref)
	next := b.cursor(&c)
	*next = c.FlowSeq + 1
	b.advance(c.Flow.In, next)
	return c, true
}

// Output is one PPS output-port: a pull policy plus the reassembly buffer
// and the external-line emission logic (at most one cell per slot; a cell
// may depart in the very slot it reached the output-port).
type Output struct {
	j      cell.Port
	policy Policy
	buf    Buffer

	busySlots  int64 // slots in which a cell departed
	firstSlot  cell.Time
	lastSlot   cell.Time
	everActive bool
}

// NewOutput returns output-port j of an n-port switch with the given pull
// policy, resequencing over store s in a standalone buffer (NewBuffer). It
// panics on a nil policy or store.
func NewOutput(j cell.Port, p Policy, s *cell.Store, n int) *Output {
	checkOutputArgs(p, s, n)
	o := &Output{}
	o.init(j, p, s, ownCursors(n), true)
	return o
}

// NewOutputs returns all n output-ports of an n-port switch in one slab,
// output j at index j: one heap object for the whole output stage instead of
// one per port. Their resequencers share the flow-cursor column next,
// indexed by FlowID-1, which the caller grows to cover a cell's FlowID
// before the cell can reach an output — serially, so outputs stepped
// concurrently only write their own flows' entries. It panics on a nil
// policy, store or column.
func NewOutputs(n int, p Policy, s *cell.Store, next *cell.Column[uint64]) []Output {
	checkOutputArgs(p, s, n)
	if next == nil {
		panic("mux: nil cursor column")
	}
	outs := make([]Output, n)
	for j := range outs {
		outs[j].init(cell.Port(j), p, s, next, false)
	}
	return outs
}

func checkOutputArgs(p Policy, s *cell.Store, n int) {
	if p == nil {
		panic("mux: nil policy")
	}
	if s == nil || n <= 0 {
		panic(fmt.Sprintf("mux: output needs a store and n > 0 (n=%d)", n))
	}
}

func (o *Output) init(j cell.Port, p Policy, s *cell.Store, next *cell.Column[uint64], byInput bool) {
	*o = Output{j: j, policy: p, buf: Buffer{s: s, next: next, byInput: byInput}, firstSlot: cell.None, lastSlot: cell.None}
}

// Step advances the output by one slot: pull per policy, then emit the
// earliest buffered cell, if any. It returns the departed cell (ok=false if
// the output was idle) or an error if the policy violated a gate.
func (o *Output) Step(t cell.Time, pv PlaneView) (cell.Cell, bool, error) {
	if err := o.policy.Pull(t, pv, &o.buf); err != nil {
		return cell.Cell{}, false, err
	}
	c, ok := o.buf.PopEmittable()
	if !ok {
		return cell.Cell{}, false, nil
	}
	if c.Flow.Out != o.j {
		return cell.Cell{}, false, fmt.Errorf("mux: output %d pulled cell %v for output %d", o.j, c, c.Flow.Out)
	}
	c.Depart = t
	o.busySlots++
	if !o.everActive {
		o.firstSlot = t
		o.everActive = true
	}
	o.lastSlot = t
	return c, true, nil
}

// Buffered reports the number of cells waiting in the reassembly buffer.
func (o *Output) Buffered() int { return o.buf.Len() }

// Skip informs the resequencing buffer that cell c was dropped inside the
// switch and will never arrive (see Buffer.Skip).
func (o *Output) Skip(c cell.Cell) { o.buf.Skip(c) }

// Utilization reports the fraction of slots in [firstDeparture,
// lastDeparture] in which a cell departed — 1.0 means the output never
// idled between its first and last departure (the Theorem 14 "no relative
// queuing delay in congested periods" signature). It returns 0 when the
// output never departed a cell.
//
// The busy window is cumulative over the Output's lifetime and is never
// reset, so the figure is only meaningful for a single run. Reusing a
// fabric would silently blend the runs' windows (and every other cumulative
// counter); harness.Drive therefore rejects an already-driven PPS.
func (o *Output) Utilization() float64 {
	if !o.everActive {
		return 0
	}
	span := int64(o.lastSlot-o.firstSlot) + 1
	return float64(o.busySlots) / float64(span)
}
