// Package mux implements the PPS output-ports: the multiplexors that pull
// cells from the plane queues over the rate-r output-side lines and emit
// them on the external line at rate R.
//
// The multiplexor enforces the global FCFS discipline of the reference
// switch: among cells present in the output-port buffer, the one that
// arrived to the PPS earliest (globally, across inputs) departs first. It
// pulls by the model's one rule (Section 2): every slot, it takes the head
// of every plane queue whose output-side line is free, so the aggregate
// inflow to an output can reach S*R (the speedup is exactly the ratio of
// aggregate internal capacity to the external line).
//
// Cells are addressed by cell.Ref into the shared columnar cell.Store
// (DESIGN.md §13): the view hands the output every eligible plane head in
// one call and pops them all in a second, and the resequencer threads the
// refs onto rings through the store's link column, so no output owns a
// container of its own.
package mux

import (
	"fmt"

	"ppsim/internal/cell"
	"ppsim/internal/queue"
)

// Head is one eligible plane head as reported by PlaneView.Eligible: the
// plane and the global sequence number of its head cell.
type Head struct {
	K   cell.Plane
	Seq uint64
}

// PlaneView is the fabric-provided view of the center stage restricted to
// one output-port: the per-plane queues destined to that output and the
// output-side line gates. The protocol is batched: one Eligible call per
// slot surfaces every pullable head and one PullBatch takes them all, two
// interface crossings per output-slot instead of four per cell.
type PlaneView interface {
	// Planes returns K.
	Planes() int
	// Eligible appends, in ascending plane order, a Head for every plane
	// whose queue for this output is non-empty and whose output-side line
	// is free at slot t.
	Eligible(t cell.Time, dst []Head) []Head
	// PullBatch seizes the line of every listed head at t and pops the head
	// refs in order, appending them to dst. On a gate violation it returns
	// the refs taken so far together with the error; the caller still owns
	// those refs.
	PullBatch(t cell.Time, heads []Head, dst []cell.Ref) ([]cell.Ref, error)
}

// Eager names the output stage's one pull rule: every slot, take every
// eligible head. It carries nothing; it stays a type only because NewOutput
// takes it, and the benchmark's mux kernel calls NewOutput(j, Eager{}, s, n).
type Eager struct{}

// Buffer is the output-port resequencing buffer. The PPS must preserve the
// order of cells within a flow, but cells of one flow switched through
// different planes can reach the output out of order; the buffer therefore
// *parks* a cell whose per-flow predecessor has not yet departed, and emits
// — among the in-order ("emittable") cells — the one that arrived to the
// switch earliest (global FCFS, matching the reference discipline). The
// waiting this induces is genuine resequencing delay and is charged to the
// PPS, as the paper's relative-delay accounting requires.
//
// Each flow's resequencing state is one 8-byte Cursor in a cell.Column: the
// next FlowSeq the flow may emit, and a cell.Ring of its parked cells
// sorted by FlowSeq, threaded through the store's link column (a parked
// cell is on no plane queue and not free, so its link slot is unused). The
// fabric's outputs share one column indexed by FlowID-1 (NewOutputs), so
// the resequencers cost one 8-byte word per flow the run carries and
// allocate nothing to park. A standalone output's buffer (NewOutput) owns
// an n-entry column indexed by the input-port instead: its flows are
// exactly one per input, and a FlowID-indexed column of its own would be
// sized to the whole switch's flow count.
//
// The emittable cells wait the same way, on one ring per output sorted by
// global Seq: an emittable cell is on no plane queue, on no parked ring and
// not free. Most inserts are the new maximum and append at the tail; the
// rest walk from the head (DESIGN.md §13 bounds the walk).
type Buffer struct {
	s *cell.Store

	emittable cell.Ring            // in-order cells, lowest Seq first (global FCFS)
	byInput   bool                 // standalone: next is indexed by Flow.In, not FlowID-1
	next      *cell.Column[Cursor] // flow cursors and parked rings
	held      int                  // cells buffered: emittable and parked
	// drops holds the (In, FlowSeq mod 2^32) keys the fabric reported
	// dropped ahead of the flow's frontier (failed planes, DropCount
	// policy): a parked cell must not wait forever for a predecessor that
	// will never be delivered. A record waits for the flow's frontier to
	// reach it and is not a cell: Len does not count it, so an output
	// holding only records is idle. Nil until the first such Skip, which
	// keeps an Output small (fabric.New builds N of them).
	drops *queue.SeqTable

	// sc is the per-slot pull scratch. The outputs of one store shard share
	// it (NewOutputs): they are stepped one after another by the same
	// goroutine.
	sc *pullScratch
}

// Cursor is one flow's resequencing state: 8 bytes, in a cell.Column.
//
// next is the FlowSeq the flow may emit next, modulo 2^32. Comparing a
// cell's FlowSeq to it modulo 2^32 is exact: every FlowSeq between the
// flow's frontier and a cell of the flow at the output belongs to a cell
// still in the switch (a store holds fewer than 2^32 refs) or to a drop
// record, so two FlowSeqs 2^32 apart would need 2^32 cells or records held
// at once (64 GiB of records alone). The order referee keeps the full
// 64-bit FlowSeq of each flow apart from the resequencer, so a cursor that
// wrapped wrongly would surface as an order violation.
type Cursor struct {
	next   uint32
	parked cell.Ring // the flow's parked cells, lowest FlowSeq first
}

// pullScratch holds the heads and refs of one pull, sized to K on the
// first pull, since a slot surfaces at most one head per plane.
type pullScratch struct {
	heads []Head
	refs  []cell.Ref
}

// pull moves every eligible head at slot t into the buffer, in ascending
// plane order and in a single batch. A standalone output creates its own
// scratch on its first pull; either is sized to pv's K then.
func (b *Buffer) pull(t cell.Time, pv PlaneView) error {
	if b.sc == nil {
		b.sc = new(pullScratch)
	}
	sc := b.sc
	if sc.heads == nil {
		k := pv.Planes()
		sc.heads, sc.refs = make([]Head, 0, k), make([]cell.Ref, 0, k)
	}
	sc.heads = pv.Eligible(t, sc.heads[:0])
	if len(sc.heads) == 0 {
		return nil
	}
	var err error
	sc.refs, err = pv.PullBatch(t, sc.heads, sc.refs[:0])
	// Push whatever was taken even on error, so every popped cell is
	// accounted in the buffer before the violation aborts the run.
	for _, r := range sc.refs {
		b.Push(t, r)
	}
	return err
}

// ownCursors is a standalone output's input-indexed cursor column: n
// entries, one page up to n = 4096.
func ownCursors(n int) *cell.Column[Cursor] {
	col := cell.NewColumn[Cursor](n)
	col.GrowTo(n)
	return &col
}

// cursor returns c's flow cursor. A shared column was grown to c's FlowID by
// its owner before the cell was pushed.
func (b *Buffer) cursor(c *cell.Cell) *Cursor {
	i := int(c.FlowID) - 1
	if b.byInput {
		i = int(c.Flow.In)
	}
	return b.next.At(i)
}

// Push inserts a cell delivered by a plane at slot t, stamping AtOutput.
func (b *Buffer) Push(t cell.Time, r cell.Ref) {
	c := b.s.At(r)
	c.AtOutput = t
	b.held++
	cur := b.cursor(c)
	if uint32(c.FlowSeq) == cur.next {
		b.s.RingInsertSeq(&b.emittable, r)
		return
	}
	b.s.RingInsert(&cur.parked, r)
}

// Len reports the number of buffered cells (emittable and parked).
func (b *Buffer) Len() int { return b.held }

// Skip records that cell c was dropped inside the switch (a failed plane
// under the DropCount policy) and will never be delivered: the resequencer
// treats its FlowSeq as already departed, so successors do not park forever
// behind the gap. Skips may arrive in any order relative to the flow's
// progression and to each other.
func (b *Buffer) Skip(c cell.Cell) {
	cur := b.cursor(&c)
	if uint32(c.FlowSeq) != cur.next {
		if b.drops == nil {
			b.drops = new(queue.SeqTable)
		}
		b.drops.Put(int32(c.Flow.In), uint64(uint32(c.FlowSeq)), 0)
		return
	}
	cur.next++
	b.advance(c.Flow.In, cur)
}

// advance moves input in's flow on from a cursor that was just bumped: it
// releases the parked cell now in order, if there is one, and otherwise
// steps over every consecutive dropped FlowSeq to look again.
func (b *Buffer) advance(in cell.Port, cur *Cursor) {
	for {
		if r, ok := b.s.RingFront(&cur.parked); ok && uint32(b.s.At(r).FlowSeq) == cur.next {
			b.s.RingPop(&cur.parked)
			b.s.RingInsertSeq(&b.emittable, r)
			return
		}
		if b.drops == nil {
			return
		}
		if _, dropped := b.drops.Take(int32(in), uint64(cur.next)); !dropped {
			return
		}
		cur.next++
	}
}

// PopEmittable removes and returns the earliest in-order cell (freeing its
// ref back to the store); ok is false when every buffered cell is waiting
// for a predecessor (or the buffer is empty).
func (b *Buffer) PopEmittable() (cell.Cell, bool) {
	if b.emittable == 0 {
		return cell.Cell{}, false
	}
	c := b.s.Take(b.s.RingPop(&b.emittable))
	b.held--
	cur := b.cursor(&c)
	cur.next = uint32(c.FlowSeq) + 1
	b.advance(c.Flow.In, cur)
	return c, true
}

// Output is one PPS output-port: the reassembly buffer and the
// external-line emission logic (at most one cell per slot; a cell may
// depart in the very slot it reached the output-port).
type Output struct {
	j   cell.Port
	buf Buffer

	busySlots  int64 // slots in which a cell departed
	firstSlot  cell.Time
	lastSlot   cell.Time
	everActive bool
}

// NewOutput returns output-port j of an n-port switch, resequencing over
// store s in a standalone buffer whose flow cursors are indexed by
// input-port. It panics on a nil store or n <= 0.
func NewOutput(j cell.Port, _ Eager, s *cell.Store, n int) *Output {
	checkOutputArgs(s, n)
	o := &Output{}
	o.init(j, s, ownCursors(n), true)
	return o
}

// NewOutputs returns all n output-ports of an n-port switch in one slab,
// output j at index j: one heap object for the whole output stage instead of
// one per port. Their resequencers share the flow-cursor column next,
// indexed by FlowID-1, which the caller grows to cover a cell's FlowID
// before the cell can reach an output — serially, so outputs stepped
// concurrently only write their own flows' entries. outShard[j] is the
// store shard output j's cells live in; the outputs of one shard share one
// pull scratch, so they must be stepped by one goroutine at a time. It
// panics on a nil store or column, n <= 0, or an outShard not of length n.
func NewOutputs(n int, s *cell.Store, next *cell.Column[Cursor], outShard []int32) []Output {
	checkOutputArgs(s, n)
	if next == nil {
		panic("mux: nil cursor column")
	}
	if len(outShard) != n {
		panic(fmt.Sprintf("mux: outShard maps %d outputs, want %d", len(outShard), n))
	}
	shards := 0
	for _, sh := range outShard {
		shards = max(shards, int(sh)+1)
	}
	scratch := make([]pullScratch, shards)
	outs := make([]Output, n)
	for j := range outs {
		outs[j].init(cell.Port(j), s, next, false)
		outs[j].buf.sc = &scratch[outShard[j]]
	}
	return outs
}

func checkOutputArgs(s *cell.Store, n int) {
	if s == nil || n <= 0 {
		panic(fmt.Sprintf("mux: output needs a store and n > 0 (n=%d)", n))
	}
}

func (o *Output) init(j cell.Port, s *cell.Store, next *cell.Column[Cursor], byInput bool) {
	*o = Output{j: j, buf: Buffer{s: s, next: next, byInput: byInput}, firstSlot: cell.None, lastSlot: cell.None}
}

// Step advances the output by one slot: pull every eligible head, then emit
// the earliest buffered cell, if any. It returns the departed cell (ok=false
// if the output was idle) or an error if a pull violated a gate.
func (o *Output) Step(t cell.Time, pv PlaneView) (cell.Cell, bool, error) {
	if err := o.buf.pull(t, pv); err != nil {
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
