package cell

import (
	"fmt"
	"math/bits"
)

// Ref is a 32-bit handle into a Store: the owning shard in the top bits and
// the slot index within the shard's slab in the low bits (the split is
// chosen per Store from its shard count). Queues and heaps hold Refs instead
// of 64-byte Cell values, so moving a cell between stages copies four bytes
// and the cell body is written once, at dispatch, into a contiguous slab.
type Ref uint32

// Store is a columnar arena for in-flight cells. Cells live in per-shard
// contiguous slabs; each shard has a LIFO freelist so the steady state
// allocates nothing. Shards exist for the stage-parallel engine: a cell is
// allocated in the serial dispatch phase into the shard owning its output,
// and freed only by that shard's mux worker — allocation and free of one
// shard never race, and the stage barrier orders them, so no atomics are
// needed.
//
// A Store is not safe for concurrent use of the *same* shard; distinct
// shards may be used concurrently (each field below is only written under
// single-shard ownership).
type Store struct {
	idxBits uint32
	idxMask uint32
	shards  []storeShard
}

// storeShard is one slab + freelist. The trailing pad keeps the mutable
// slice headers and live counter of adjacent shards on different cache
// lines, since different workers write them concurrently.
type storeShard struct {
	cells []Cell
	free  []uint32
	live  int
	_     [64]byte
}

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

// Put writes c into shard sh and returns its Ref, reusing a freed slot when
// one exists. It panics when the shard's index space is exhausted (2^idxBits
// cells live at once — far beyond any switch backlog this repo simulates).
func (s *Store) Put(sh int, c Cell) Ref {
	shard := &s.shards[sh]
	var idx uint32
	if n := len(shard.free); n > 0 {
		idx = shard.free[n-1]
		shard.free = shard.free[:n-1]
		shard.cells[idx] = c
	} else {
		idx = uint32(len(shard.cells))
		if idx > s.idxMask {
			panic(fmt.Sprintf("cell: store shard %d overflow (%d cells live)", sh, idx))
		}
		shard.cells = append(shard.cells, c)
	}
	shard.live++
	return Ref(uint32(sh)<<s.idxBits | idx)
}

// At returns a pointer to the cell r refers to. The pointer is valid until
// the slab grows (a Put into the same shard) — callers must not hold it
// across a Put, only read or stamp fields and move on.
func (s *Store) At(r Ref) *Cell {
	return &s.shards[uint32(r)>>s.idxBits].cells[uint32(r)&s.idxMask]
}

// Free returns r's slot to its shard's freelist. Freeing a ref twice
// corrupts the freelist; the fabric's conservation audit cross-checks
// Live() against the structural cell counts to catch such bugs.
func (s *Store) Free(r Ref) {
	shard := &s.shards[uint32(r)>>s.idxBits]
	shard.free = append(shard.free, uint32(r)&s.idxMask)
	shard.live--
}

// Take copies the cell out and frees its slot in one step.
func (s *Store) Take(r Ref) Cell {
	c := *s.At(r)
	s.Free(r)
	return c
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
