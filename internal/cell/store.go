package cell

import (
	"fmt"
	"math/bits"
)

// Ref is a 32-bit handle into a Store: the owning shard in the top bits and
// the slot index within the shard's slab in the low bits (the split is
// chosen per Store from its shard count). Queues and heaps hold Refs instead
// of 72-byte Cell values, so moving a cell between stages copies four bytes
// and the cell body is written once, at dispatch, into a contiguous slab.
type Ref uint32

// Store is a columnar arena for in-flight cells. Cells live in per-shard
// contiguous slabs, beside a link column of one Ref per slot that threads
// the shard's LIFO freelist, every List (a plane queue) and every Ring (a
// resequencer's parked cells of one flow, or an output's emittable cells)
// holding the shard's refs: a slot is on at most one of them, so the
// steady state allocates nothing and no queue owns memory of its own.
// Shards exist for the stage-parallel engine: a cell is allocated in the
// serial dispatch phase into the shard owning its output, and popped and
// freed only by that shard's mux worker — the links of one shard are never
// written concurrently, and the stage barrier orders the phases, so no
// atomics are needed.
//
// A Store is not safe for concurrent use of the *same* shard; distinct
// shards may be used concurrently (each field below is only written under
// single-shard ownership).
type Store struct {
	idxBits uint32
	idxMask uint32
	shards  []storeShard
}

// storeShard is one slab, its link column and the freelist threaded
// through it (free is the top slot when nfree > 0). The trailing pad keeps
// the mutable fields of adjacent shards on different cache lines, since
// different workers write them concurrently.
type storeShard struct {
	cells []Cell
	link  []Ref
	free  Ref
	nfree int32
	live  int
	_     [64]byte
}

// List is a FIFO of refs threaded through a Store's link column: 12 bytes,
// and pushing or popping allocates nothing. The zero value is an empty
// list. A ref is on at most one list at a time, and only while allocated.
type List struct {
	head, tail Ref
	n          int32
}

// Len reports the number of refs on the list.
func (l *List) Len() int { return int(l.n) }

// Front returns the oldest ref without removing it; ok is false when the
// list is empty.
func (l *List) Front() (Ref, bool) {
	if l.n == 0 {
		return 0, false
	}
	return l.head, true
}

// Ring is a circular list of refs threaded through a Store's link column,
// kept sorted by the cells' FlowSeq (RingInsert) or global Seq
// (RingInsertSeq), one key per ring: 4 bytes, and inserting or popping
// allocates nothing. It holds the tail ref + 1, 0 meaning empty, and the
// tail links to the head; Put never hands out the all-ones ref, so no live
// tail reads as empty. The zero value is an empty ring. A ref is on at most
// one ring or List at a time, and only while allocated.
type Ring uint32

// NewStore returns a Store with the given shard count (>= 1). The Ref
// encoding reserves ceil(log2(shards)) top bits for the shard, leaving the
// rest for the per-shard index; with one shard the full 32 bits index the
// slab.
func NewStore(shards int) *Store {
	if shards < 1 {
		panic(fmt.Sprintf("cell: store needs >= 1 shard, got %d", shards))
	}
	shardBits := uint32(bits.Len(uint(shards - 1)))
	idxBits := 32 - shardBits
	return &Store{
		idxBits: idxBits,
		idxMask: uint32(uint64(1)<<idxBits - 1),
		shards:  make([]storeShard, shards),
	}
}

// Put writes c into shard sh and returns its Ref, reusing the most recently
// freed slot when one exists. It panics when the shard's index space is
// exhausted (2^idxBits - 1 cells live at once — far beyond any switch
// backlog this repo simulates): the all-ones index is never handed out, so
// the all-ones ref, which would collide with an empty Ring, is never live.
func (s *Store) Put(sh int, c Cell) Ref {
	shard := &s.shards[sh]
	var r Ref
	if shard.nfree > 0 {
		r = shard.free
		idx := uint32(r) & s.idxMask
		shard.free = shard.link[idx]
		shard.nfree--
		shard.cells[idx] = c
	} else {
		idx := uint32(len(shard.cells))
		if idx >= s.idxMask {
			panic(fmt.Sprintf("cell: store shard %d overflow (%d cells live)", sh, idx))
		}
		shard.cells = append(shard.cells, c)
		shard.link = append(shard.link, 0)
		r = Ref(uint32(sh)<<s.idxBits | idx)
	}
	shard.live++
	return r
}

// At returns a pointer to the cell r refers to. The pointer is valid until
// the slab grows (a Put into the same shard) — callers must not hold it
// across a Put, only read or stamp fields and move on.
func (s *Store) At(r Ref) *Cell {
	return &s.shards[uint32(r)>>s.idxBits].cells[uint32(r)&s.idxMask]
}

// link returns r's entry in its shard's link column.
func (s *Store) link(r Ref) *Ref {
	return &s.shards[uint32(r)>>s.idxBits].link[uint32(r)&s.idxMask]
}

// Free pushes r's slot onto its shard's freelist. Freeing a ref twice, or
// one still on a List, corrupts the links; the fabric's conservation audit
// cross-checks Live() against the structural cell counts to catch such
// bugs.
func (s *Store) Free(r Ref) {
	shard := &s.shards[uint32(r)>>s.idxBits]
	shard.link[uint32(r)&s.idxMask] = shard.free
	shard.free = r
	shard.nfree++
	shard.live--
}

// Take copies the cell out and frees its slot in one step.
func (s *Store) Take(r Ref) Cell {
	c := *s.At(r)
	s.Free(r)
	return c
}

// PushBack appends the allocated ref r, which must be on no list, to l.
func (s *Store) PushBack(l *List, r Ref) {
	if l.n == 0 {
		l.head = r
	} else {
		*s.link(l.tail) = r
	}
	l.tail = r
	l.n++
}

// PopFront removes and returns l's oldest ref. It panics on an empty list
// (reading from an empty switch queue is a scheduling bug).
func (s *Store) PopFront(l *List) Ref {
	if l.n == 0 {
		panic("cell: PopFront on empty List")
	}
	r := l.head
	l.head = *s.link(r)
	l.n--
	return r
}

// RingInsert adds the allocated ref r, which must be on no list or ring, to
// g in FlowSeq order: a resequencer's parked cells of one flow.
func (s *Store) RingInsert(g *Ring, r Ref) { s.ringInsert(g, r, false) }

// RingInsertSeq adds the allocated ref r, which must be on no list or ring,
// to g in global Seq order: an output's emittable cells, popped in FCFS
// order.
func (s *Store) RingInsertSeq(g *Ring, r Ref) { s.ringInsert(g, r, true) }

// ringKey returns the field a ring is sorted by: Seq or FlowSeq.
func (s *Store) ringKey(r Ref, bySeq bool) uint64 {
	c := s.At(r)
	if bySeq {
		return c.Seq
	}
	return c.FlowSeq
}

// ringInsert is the one walk behind RingInsert and RingInsertSeq. A cell
// whose key is above the tail's, the common case, is appended in O(1);
// otherwise the walk starts at the head and stops before the first cell
// whose key is not below r's, so r goes before any cell it ties with.
func (s *Store) ringInsert(g *Ring, r Ref, bySeq bool) {
	if *g == 0 {
		*s.link(r) = r
		*g = Ring(r + 1)
		return
	}
	tail := Ref(*g - 1)
	key := s.ringKey(r, bySeq)
	if key > s.ringKey(tail, bySeq) {
		*s.link(r) = *s.link(tail)
		*s.link(tail) = r
		*g = Ring(r + 1)
		return
	}
	// key <= the tail's, so the walk stops at the tail at the latest.
	prev := tail
	cur := *s.link(tail)
	for s.ringKey(cur, bySeq) < key {
		prev, cur = cur, *s.link(cur)
	}
	*s.link(r) = cur
	*s.link(prev) = r
}

// RingFront returns the ref with the lowest key without removing it; ok is
// false when the ring is empty.
func (s *Store) RingFront(g *Ring) (Ref, bool) {
	if *g == 0 {
		return 0, false
	}
	return *s.link(Ref(*g - 1)), true
}

// RingPop removes and returns the ref with the lowest key. It panics on an
// empty ring.
func (s *Store) RingPop(g *Ring) Ref {
	if *g == 0 {
		panic("cell: RingPop on empty Ring")
	}
	tail := Ref(*g - 1)
	head := *s.link(tail)
	if head == tail {
		*g = 0
	} else {
		*s.link(tail) = *s.link(head)
	}
	return head
}

// Live reports the number of refs currently allocated across all shards —
// exactly the cells sitting in plane queues plus output resequencers, which
// the fabric audit verifies.
func (s *Store) Live() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].live
	}
	return n
}
