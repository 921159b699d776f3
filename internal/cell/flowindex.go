package cell

import "math/bits"

// FlowIndex maps a flow's (In, Out) pair to its dense 1-based FlowID, minted
// in first-sight order: the ids it has handed out are exactly 1..Len, so
// per-flow state lives in columns indexed by id-1 and sized to the flows a
// run carries. It is the one answer to "which flow is this?" for every
// layer that keeps per-flow state: the Stamper, the metrics recorder and the
// per-flow demultiplexors.
//
// A small switch (n² ≤ 2¹⁶, at most 256 KiB of ids) gets a dense n×n table,
// allocated up front: one load per lookup. Everything else is hashed — a
// large switch, a port outside [0, n), an unsized index (n ≤ 0). The hash
// table is open-addressed with linear probing from a multiplicative hash,
// holds ids in a power-of-two []FlowID (0 = empty), doubles at load 1/2 and
// allocates nothing until its first flow; the keys sit in a Column indexed
// by id-1, and only hashed flows store one. Nothing iterates the table, so
// hash and capacity cannot reach a simulation result.
//
// A FlowIndex is not safe for concurrent use.
type FlowIndex struct {
	n     uint32   // side of the dense table; 0 = no dense table
	dense []FlowID // n*n (In, Out) → id; 0 = not yet seen
	slots []FlowID // hashed flows' ids by probe position; 0 = empty
	keys  Column[Flow]
	held  int // hashed flows
	len   int // ids minted
}

// flowIndexDenseMax caps the dense table at 2¹⁶ flows, i.e. n <= 256.
const flowIndexDenseMax = 1 << 16

const flowIndexMinSlots = 8 // what the first hashed flow allocates

// NewFlowIndex returns an empty index for an n-port switch; n <= 0 means
// unsized.
func NewFlowIndex(n int) *FlowIndex {
	x := &FlowIndex{}
	if n > 0 && n*n <= flowIndexDenseMax {
		x.n = uint32(n)
		x.dense = make([]FlowID, n*n)
		x.keys = NewColumn[Flow](n * n)
	} else {
		x.keys = NewColumn[Flow](0)
	}
	return x
}

// Len reports how many ids have been minted.
func (x *FlowIndex) Len() int { return x.len }

// ID returns flow f's id, minting the next one on first sight.
func (x *FlowIndex) ID(f Flow) FlowID {
	if uint32(f.In) < x.n && uint32(f.Out) < x.n {
		slot := &x.dense[uint32(f.In)*x.n+uint32(f.Out)]
		if *slot == 0 {
			x.len++
			*slot = FlowID(x.len)
		}
		return *slot
	}
	return x.hashed(f)
}

// Find returns flow f's id, or false when f has none. It never mints.
func (x *FlowIndex) Find(f Flow) (FlowID, bool) {
	if uint32(f.In) < x.n && uint32(f.Out) < x.n {
		id := x.dense[uint32(f.In)*x.n+uint32(f.Out)]
		return id, id != 0
	}
	if x.held == 0 {
		return 0, false
	}
	id, _ := x.lookup(f)
	return id, id != 0
}

// hashed is ID for a flow outside the dense table.
func (x *FlowIndex) hashed(f Flow) FlowID {
	if x.held > 0 {
		if id, _ := x.lookup(f); id != 0 {
			return id
		}
	}
	if 2*(x.held+1) > len(x.slots) {
		x.grow()
	}
	_, i := x.lookup(f)
	x.len++
	x.held++
	x.keys.GrowTo(x.len)
	*x.keys.At(x.len - 1) = f
	x.slots[i] = FlowID(x.len)
	return x.slots[i]
}

// home is the slot f's probe sequence starts at: both ports mixed by two odd
// constants (2^64/phi, splitmix64's multiplier), top bits kept. Traffic
// produces lattices — every input to a few outputs, or the transpose — and
// TestFlowIndexConcentration bounds the probe length on them.
func (x *FlowIndex) home(f Flow) int {
	h := (uint64(uint32(f.Out)) + uint64(uint32(f.In))*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	top, _ := bits.Mul64(h, uint64(len(x.slots))) // h >> (64 - log2 len)
	return int(top)
}

// lookup returns f's id and slot, or 0 and the empty slot that ends f's
// probe sequence. Load <= 1/2 is why every probe meets an empty slot.
func (x *FlowIndex) lookup(f Flow) (FlowID, int) {
	mask := len(x.slots) - 1
	for i := x.home(f); ; i = (i + 1) & mask {
		id := x.slots[i]
		if id == 0 || *x.keys.At(int(id) - 1) == f {
			return id, i
		}
	}
}

// grow doubles the hash table, reinserting every held id at its key's home.
func (x *FlowIndex) grow() {
	old := x.slots
	x.slots = make([]FlowID, max(flowIndexMinSlots, 2*len(old)))
	for _, id := range old {
		if id != 0 {
			_, i := x.lookup(*x.keys.At(int(id) - 1))
			x.slots[i] = id
		}
	}
}
