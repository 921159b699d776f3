// Package demux implements the demultiplexing algorithms of the PPS: the
// per-input state machines that decide, for every arriving cell, which
// middle-stage plane it is switched through (Definitions 1 and 2 of the
// paper), or — in the input-buffered variant — whether it is held in the
// input buffer.
//
// The paper classifies demultiplexing algorithms by the information they
// use (Section 1):
//
//   - centralized: every decision sees the full, current switch status
//     (CPA);
//   - fully-distributed: decisions see only the input-port's local history
//     (RoundRobin, StaticPartition, Random, FTD, BufferedRR);
//   - u real-time distributed (u-RT): local information plus global
//     information older than u slots (StaleCPA, BufferedCPA).
//
// Information discipline is enforced by construction: fully-distributed
// algorithms never read the global event log, u-RT algorithms read it only
// through a cursor capped at t-u, and only CPA holds a live reference to
// current global state.
package demux

import (
	"fmt"
	"math/bits"

	"ppsim/internal/cell"
)

// Send is one dispatch decision: transmit Cell to plane Plane in the
// current slot. The fabric seizes the (input, plane) gate and errors if the
// algorithm violated the input constraint.
type Send struct {
	Cell  cell.Cell
	Plane cell.Plane
}

// Algorithm is a demultiplexing algorithm for the whole input stage. A
// single value handles all N inputs; distributed algorithms keep isolated
// per-input state internally.
type Algorithm interface {
	// Name identifies the algorithm in reports and the registry.
	Name() string

	// Slot processes one time-slot. arrivals holds the cells arriving at
	// slot t, at most one per input, in global sequence order. The
	// returned sends are executed this slot; any arrival not sent must be
	// buffered by the algorithm (only input-buffered algorithms may do
	// so). Slot is called for every slot, including silent ones, so
	// buffered algorithms can release held cells — except that engines may
	// elide the call on slots that are provably idle (no arrivals, no
	// buffered cells anywhere) unless the algorithm reads the global Log.
	// Slot(t, nil) with nothing buffered must therefore leave the state of
	// an algorithm that does not read the Log unchanged and send nothing.
	// The returned slice is only valid until the next Slot call:
	// algorithms reuse its backing array across slots to keep the steady
	// state allocation-free.
	Slot(t cell.Time, arrivals []cell.Cell) ([]Send, error)

	// Buffered reports the number of cells currently held in input-port
	// i's buffer; bufferless algorithms return 0. The fabric uses it for
	// conservation checks and buffer-capacity enforcement.
	Buffered(in cell.Port) int
}

// sendScratch is the reusable per-slot sends slice embedded by every
// algorithm. The fabric consumes the slice returned by Slot before the next
// Slot call (see Algorithm.Slot), so handing out the same backing array
// each slot is safe and keeps steady-state dispatch allocation-free.
type sendScratch struct{ sends []Send }

// take returns the reusable slice, emptied.
func (s *sendScratch) take() []Send { return s.sends[:0] }

// keep retains sends' backing array for the next slot and returns sends.
func (s *sendScratch) keep(sends []Send) []Send {
	s.sends = sends
	return sends
}

// Prober is implemented by deterministic algorithms that can reveal which
// plane they would pick next for a given (input, output) pair, assuming all
// input gates free and no intervening arrivals. The steering adversary of
// Theorem 6 uses it as a stand-in for the proof's "for every pair of
// applicable configurations there is a traffic leading from one to the
// other": instead of searching traffic space, it asks the state machine
// directly and feeds cells until the answer is the target plane.
type Prober interface {
	WouldChoose(in cell.Port, out cell.Port) (cell.Plane, bool)
}

// Env is the fabric-provided environment an algorithm is constructed with.
type Env interface {
	// Ports returns N, the number of external ports.
	Ports() int
	// Planes returns K, the number of middle-stage switches.
	Planes() int
	// RPrime returns r' = R/r, the slots an internal line is held per cell.
	RPrime() int64
	// FreeGateMask returns the set of planes whose line from input in is
	// free at slot t, as a bitmask over plane indices — the input
	// constraint as one word per cell. The input's own gates are local
	// information, available to every class of algorithm, and fault-aware
	// wrappers compose by clearing dead planes' bits. Plane sets are single
	// words (Planes() <= MaxPlanes). Queries for an input must come with
	// non-decreasing t (the fabric's per-slot dispatch order guarantees
	// this).
	FreeGateMask(in cell.Port, t cell.Time) uint64
	// Log returns the global event log. Fully-distributed algorithms must
	// not call it; u-RT algorithms must cap reads at t-u.
	Log() *Log
}

// MaxPlanes is the widest center stage the simulator supports: plane sets
// are one-word bitmasks everywhere (Env.FreeGateMask, planeBuckets,
// linkBuckets), and fabric.Config.Validate rejects anything wider.
const MaxPlanes = 64

// EventKind discriminates global log entries.
type EventKind uint8

// Event kinds recorded by the fabric.
const (
	// EvArrival: a cell arrived at input In destined to Out.
	EvArrival EventKind = iota
	// EvDispatch: a cell for Out was sent from In to plane K.
	EvDispatch
	// EvXmit: a cell for Out crossed the (K, Out) plane-to-output line.
	EvXmit
)

// Event is one entry of the global log.
type Event struct {
	T    cell.Time
	Kind EventKind
	In   cell.Port
	Out  cell.Port
	K    cell.Plane
}

// Log is the record of globally visible switch events, written by the fabric
// in slot order. Readers hold independent cursors registered through
// NewCursor, so several u-RT viewers with different staleness can share one
// log. The log retains only the events its slowest registered cursor has not
// yet read: a u-RT reader that keeps up pins O(events of the last u slots),
// not the whole run.
type Log struct {
	events  []Event
	base    int // absolute position of events[0]
	cursors []*Cursor
}

// logCompactFloor is the smallest consumed prefix worth copying down; below
// it the retained slice is left alone, so short runs never compact.
const logCompactFloor = 256

// Append records an event. Events must be appended in non-decreasing slot
// order; the fabric guarantees this.
func (l *Log) Append(e Event) {
	if n := len(l.events); n > 0 && e.T < l.events[n-1].T {
		panic(fmt.Sprintf("demux: log event at slot %d after slot %d", e.T, l.events[n-1].T))
	}
	l.events = append(l.events, e)
}

// Len reports the number of events ever recorded, dropped ones included.
func (l *Log) Len() int { return l.base + len(l.events) }

// Cursor is a registered reader's absolute position in a Log.
type Cursor struct {
	log *Log
	pos int
}

// NewCursor registers a reader positioned at the oldest retained event. A
// cursor registered before the first Append reads the full stream; the log
// keeps every event some registered cursor has not read yet.
func (l *Log) NewCursor() *Cursor {
	c := &Cursor{log: l, pos: l.base}
	l.cursors = append(l.cursors, c)
	return c
}

// Read invokes fn for every unread event with T <= upto, advancing the
// cursor past them. Events with T > upto remain unread — this is how u-RT
// algorithms are physically prevented from seeing the last u slots. Read
// then drops the prefix every registered cursor has passed.
func (l *Log) Read(c *Cursor, upto cell.Time, fn func(Event)) {
	if c.log != l {
		panic("demux: Read with a cursor not registered on this log")
	}
	for i := c.pos - l.base; i < len(l.events) && l.events[i].T <= upto; i++ {
		fn(l.events[i])
		c.pos++
	}
	l.compact()
}

// compact drops the events every registered cursor has read. The copy-down
// runs only once the consumed prefix is past logCompactFloor and at least
// half the slice, so each retained event is moved O(1) times amortized.
func (l *Log) compact() {
	low := l.cursors[0].pos
	for _, c := range l.cursors[1:] {
		low = min(low, c.pos)
	}
	done := low - l.base
	if done < logCompactFloor || 2*done < len(l.events) {
		return
	}
	l.events = l.events[:copy(l.events, l.events[done:])]
	l.base = low
}

// pickFree returns the first plane of allow, in cyclic order from start,
// whose input gate is free at t, or NoPlane if there is none (with K >= r'
// and allow = every plane, the input constraint leaves at most r'-1 gates
// busy; the fabric still checks).
func pickFree(env Env, in cell.Port, t cell.Time, start cell.Plane, allow uint64) cell.Plane {
	m := env.FreeGateMask(in, t) & allow
	if m == 0 {
		return cell.NoPlane
	}
	if up := m &^ (uint64(1)<<uint(start) - 1); up != 0 {
		m = up
	}
	return cell.Plane(bits.TrailingZeros64(m))
}
