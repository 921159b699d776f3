// Package cell defines the fixed-size cell that flows through every switch
// in this repository, together with flow identity and time-stamp bookkeeping.
//
// The model follows Section 2 of Attiya & Hay, "The Inherent Queuing Delay of
// Parallel Packet Switches" (SPAA 2004): cells arrive to and leave the switch
// in discrete time-slots, a slot being the time to transmit one cell at the
// external rate R. Fragmentation and reassembly happen outside the switch, so
// a cell carries no payload here — only identity and timing metadata needed
// to compute queuing delay and jitter.
package cell

import "fmt"

// Time is a discrete time-slot index. Slot 0 is the first slot of an
// execution. Negative values are used as "unset" sentinels.
type Time int64

// None is the sentinel for an unset time stamp.
const None Time = -1

// Port identifies an input-port or output-port of an N x N switch,
// in the range [0, N).
type Port int32

// Plane identifies a middle-stage switch of the PPS, in the range [0, K).
type Plane int32

// NoPlane is the sentinel returned by demultiplexors that keep a cell in
// the input buffer instead of dispatching it (the vector entry called
// "infinity" in Definition 2 of the paper).
const NoPlane Plane = -1

// StartCap is the capacity a per-run table starts at in an n-port switch
// when its size follows the ports a run touches — the cells arriving or
// departing in one slot, the inputs holding cells, the outputs that have
// departed one — rather than n itself: min(n, 64). Such a table is sized
// once, when the run is built, so a short run on a small switch never
// regrows it; a large switch that touches a handful of its ports (a sparse
// trace on N = 16 384) sets aside a few hundred bytes rather than a table
// per port, and grows past the cap only as far as its traffic reaches.
func StartCap(n int) int { return max(0, min(n, 64)) }

// Flow identifies the (input, output) pair a cell belongs to. The switch
// must preserve the order of cells within a flow and must not drop cells.
type Flow struct {
	In  Port
	Out Port
}

// String renders the flow as "(i->j)".
func (f Flow) String() string { return fmt.Sprintf("(%d->%d)", f.In, f.Out) }

// FlowID is a flow's dense 1-based id, minted by the Stamper the first time
// it sees the flow: the ids of a run are exactly 1..flows, so per-flow state
// downstream lives in columns indexed by FlowID-1 and sized to the flows the
// run carries. Zero means unstamped.
type FlowID uint32

// Cell is one fixed-size unit of switching work.
//
// A Cell is created when it arrives to the switch and is annotated as it
// moves through the stages. All stamps are in time-slots.
type Cell struct {
	// Seq is a globally unique, monotonically increasing sequence number
	// assigned at arrival; it doubles as the FCFS tie-breaker.
	Seq uint64

	// FlowSeq is the cell's index within its flow, starting at 0. Order
	// preservation means cells of a flow depart in FlowSeq order.
	FlowSeq uint64

	Flow Flow

	// Arrive is the slot in which the cell arrived to its input-port.
	Arrive Time

	// Dispatch is the slot in which the demultiplexor sent the cell to a
	// plane (equals Arrive for bufferless PPS; >= Arrive when buffered).
	Dispatch Time

	// Via is the plane the cell was switched through (PPS only).
	Via Plane

	// FlowID is Flow's id, assigned by the Stamper (0 = unstamped). It sits
	// in the padding after Via, so a cell stays 72 bytes.
	FlowID FlowID

	// AtOutput is the slot the cell reached its output-port buffer.
	AtOutput Time

	// Depart is the slot the cell left the switch on its external line.
	Depart Time

	// Deadline is the absolute slot by which the cell must depart to count
	// as on time, assigned at admission from the arrival's deadline stamp.
	// Zero means no deadline (real deadlines are always >= 1 because the
	// traffic deadline wrapper assigns arrival slot + a positive offset).
	Deadline Time
}

// New returns a cell arriving at slot t on flow f with the given global and
// per-flow sequence numbers. All later stamps are unset.
func New(seq, flowSeq uint64, f Flow, t Time) Cell {
	return Cell{
		Seq:      seq,
		FlowSeq:  flowSeq,
		Flow:     f,
		Arrive:   t,
		Dispatch: None,
		Via:      NoPlane,
		AtOutput: None,
		Depart:   None,
	}
}

// QueuingDelay is Depart - Arrive, the total time the cell spent queued in
// the switch under the paper's propagation-free accounting. It panics if the
// cell has not departed: asking for the delay of an in-flight cell is a
// programming error in the harness.
func (c Cell) QueuingDelay() Time {
	if c.Depart == None {
		panic(fmt.Sprintf("cell %d %v has not departed", c.Seq, c.Flow))
	}
	return c.Depart - c.Arrive
}

// String renders a compact single-line description of the cell.
func (c Cell) String() string {
	return fmt.Sprintf("cell{#%d %v fs=%d arr=%d dis=%d via=%d out=%d dep=%d}",
		c.Seq, c.Flow, c.FlowSeq, c.Arrive, c.Dispatch, c.Via, c.AtOutput, c.Depart)
}

// Stamper hands out sequence numbers, flow ids and per-flow indices for
// newly arriving cells. It is the single authority for cell identity in an
// execution, so that the PPS and the shadow switch see byte-identical cells.
//
// Flow ids come from one FlowIndex, which the harness shares with the metrics
// recorder (Flows), so a run keeps one (In, Out) → FlowID index however many
// layers key by flow. The per-flow counters live in a Column indexed by
// FlowID-1, so they cost one word per flow the run carries.
type Stamper struct {
	next  uint64
	flows *FlowIndex
	seqs  Column[uint64] // FlowID-1 → next FlowSeq
}

// NewStamper returns an empty Stamper over an unsized (hashed) flow index.
func NewStamper() *Stamper { return NewStamperSized(0) }

// NewStamperSized returns a Stamper for an n-port switch: its flow index is
// NewFlowIndex(n) — dense on small switches, hashed on large ones, and
// allocating nothing per possible flow either way — and its counter column is
// paged for at most n*n flows. n <= 0 means unsized.
func NewStamperSized(n int) *Stamper {
	hint := 0
	if n > 0 {
		hint = n * n
	}
	return &Stamper{flows: NewFlowIndex(n), seqs: NewColumn[uint64](hint)}
}

// Flows exposes the Stamper's flow index, for layers that key their own
// per-flow state by the same ids.
func (s *Stamper) Flows() *FlowIndex { return s.flows }

// ID returns flow f's FlowID, minting the next one on first sight.
func (s *Stamper) ID(f Flow) FlowID {
	id := s.flows.ID(f)
	s.seqs.GrowTo(int(id))
	return id
}

// Stamp mints the cell for an arrival on flow f at slot t. It spells out
// New's literal with the id in it: the cell is built once, in place.
func (s *Stamper) Stamp(f Flow, t Time) Cell {
	id := s.ID(f)
	fs := s.seqs.At(int(id) - 1)
	c := Cell{Seq: s.next, FlowSeq: *fs, Flow: f, Arrive: t, Dispatch: None, Via: NoPlane, FlowID: id, AtOutput: None, Depart: None}
	*fs++
	s.next++
	return c
}

// Count reports how many cells have been stamped so far.
func (s *Stamper) Count() uint64 { return s.next }
