package queue

import "math/bits"

// SeqTable is an open-addressed hash table from a (port, seq) key to a
// 32-bit payload, built for the PPS resequencers: an output-port parks the
// ref of an out-of-order cell under (In, FlowSeq) and only ever asks "is
// the flow's next cell here?" — a point lookup, never an order query. The
// load is pure insert/delete churn, so Take shifts the tail of the probe
// cluster back over the hole instead of leaving a tombstone: a table that
// has seen a billion keys probes as one that has seen only those it holds.
//
// Entries are 16 bytes; the capacity is a power of two, doubles when an
// insert would pass load 1/2 and never shrinks. The zero value is an empty
// table that has allocated nothing. Ports must be non-negative. Nothing
// iterates a table, so hash and capacity cannot reach a simulation result.
type SeqTable struct {
	slots []seqSlot
	n     int
}

type seqSlot struct {
	seq uint64
	tag uint32 // port+1, so the zero slot reads as empty
	val uint32
}

const seqTableMinSlots = 8 // what the first Put allocates: 128 bytes

// home is the slot a key's probe sequence starts at: the top bits of both
// fields mixed by two odd constants (2^64/phi, splitmix64's multiplier).
// Traffic produces lattices — every input, a few consecutive FlowSeqs each —
// and TestSeqTableConcentration bounds the probe length on them.
func (t *SeqTable) home(tag uint32, seq uint64) int {
	h := (seq + uint64(tag)*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	top, _ := bits.Mul64(h, uint64(len(t.slots))) // h >> (64 - log2 len)
	return int(top)
}

// Len reports the number of keys held.
func (t *SeqTable) Len() int { return t.n }

// Put stores v under (port, seq), replacing the payload already there.
func (t *SeqTable) Put(port int32, seq uint64, v uint32) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	tag, mask := uint32(port)+1, len(t.slots)-1
	i := t.home(tag, seq)
	for ; t.slots[i].tag != 0; i = (i + 1) & mask {
		if t.slots[i].tag == tag && t.slots[i].seq == seq {
			t.slots[i].val = v
			return
		}
	}
	t.slots[i] = seqSlot{seq: seq, tag: tag, val: v}
	t.n++
}

// Take removes (port, seq) and returns its payload; !ok when it is absent.
// A miss on an empty table, the common case, inlines to this one branch.
func (t *SeqTable) Take(port int32, seq uint64) (v uint32, ok bool) {
	if t.n == 0 {
		return 0, false
	}
	return t.take(port, seq)
}

func (t *SeqTable) take(port int32, seq uint64) (v uint32, ok bool) {
	tag, mask := uint32(port)+1, len(t.slots)-1
	i := t.home(tag, seq)
	for ; t.slots[i].tag != tag || t.slots[i].seq != seq; i = (i + 1) & mask {
		if t.slots[i].tag == 0 {
			return 0, false
		}
	}
	v = t.slots[i].val
	// Backward shift: walk the rest of the cluster and move into the hole
	// every entry whose home is not cyclically inside (hole, entry].
	for j := (i + 1) & mask; t.slots[j].tag != 0; j = (j + 1) & mask {
		if s := t.slots[j]; (j-t.home(s.tag, s.seq))&mask >= (j-i)&mask {
			t.slots[i], i = s, j
		}
	}
	t.slots[i] = seqSlot{}
	t.n--
	return v, true
}

// grow doubles the capacity; load <= 1/2 is why every probe meets an empty slot.
func (t *SeqTable) grow() {
	old := t.slots
	t.slots = make([]seqSlot, max(seqTableMinSlots, 2*len(old)))
	t.n = 0
	for _, s := range old {
		if s.tag != 0 {
			t.Put(int32(s.tag-1), s.seq, s.val)
		}
	}
}
