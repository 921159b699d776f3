package demux

import (
	"math/bits"

	"ppsim/internal/cell"
)

// planeBuckets groups planes by a per-plane key into ascending buckets,
// each a (key, plane-bitmask) pair; every plane is in exactly one bucket.
// "Least key among the planes in a mask, lowest index on ties" is then the
// lowest set bit of the first bucket meeting the mask — exactly the plane
// the O(K) scan `if key[p] < key[best]` over ascending p picks, because
// buckets ascend by key and the lowest set bit is the lowest index within
// a key class (DESIGN.md §15).
//
// Least-loaded keys a flow's planes by dispatch count; CPA keys an
// output's planes by the next-free slot of their (plane, output) line.
// Both only ever move a plane to a larger key, so the bucket juggling is
// O(distinct keys touched) per cell, O(1) amortized.
//
// vals and bits are cut from caller-provided storage (init), so a table of
// structures can be held by value over shared slabs. A structure holding
// more distinct keys than its storage has room for spills to the heap
// through append; the three-index slices keep it off its neighbours.
type planeBuckets struct {
	vals []uint64 // ascending distinct keys present
	bits []uint64 // bits[i] = planes whose key is vals[i]; never 0
}

// bucketInline is the bucket capacity of a least-loaded flow's storage;
// the saturated steady state needs two.
const bucketInline = 4

// init sets up the structure for k planes, every key zero, over words
// (zeroed, even length): half holds keys, half plane sets. k must be in
// (0, 64].
func (b *planeBuckets) init(k int, words []uint64) {
	c := len(words) / 2
	b.vals = words[:1:c]
	b.bits = words[c : c+1 : 2*c]
	b.bits[0] = ^uint64(0) >> uint(64-k)
}

// first returns the lowest-indexed plane among those in mask with the
// least key, and that key; cell.NoPlane when mask selects no plane.
func (b *planeBuckets) first(mask uint64) (cell.Plane, uint64) {
	for i, bm := range b.bits {
		if hit := bm & mask; hit != 0 {
			return cell.Plane(bits.TrailingZeros64(hit)), b.vals[i]
		}
	}
	return cell.NoPlane, 0
}

// clamp raises every key below t to t, merging their buckets into one front
// bucket. The merge is what keeps first's tie-break right: planes whose
// keys differ but clamp equal form one class, whose lowest index may sit
// in a later raw-key bucket. Amortized O(1): a bucket is merged at most
// once per creation.
func (b *planeBuckets) clamp(t uint64) {
	if b.vals[0] >= t {
		return
	}
	m := 0
	var acc uint64
	for m < len(b.vals) && b.vals[m] <= t {
		acc |= b.bits[m]
		m++
	}
	b.vals[m-1], b.bits[m-1] = t, acc
	if m > 1 {
		b.vals = append(b.vals[:0], b.vals[m-1:]...)
		b.bits = append(b.bits[:0], b.bits[m-1:]...)
	}
}

// move changes plane p's key from `from` to `to`, which must be larger.
func (b *planeBuckets) move(p cell.Plane, from, to uint64) {
	i := 0
	for b.vals[i] != from {
		i++
	}
	bit := uint64(1) << uint(p)
	if b.bits[i] == bit {
		b.vals = append(b.vals[:i], b.vals[i+1:]...)
		b.bits = append(b.bits[:i], b.bits[i+1:]...)
	} else {
		b.bits[i] &^= bit
		i++
	}
	for i < len(b.vals) && b.vals[i] < to {
		i++
	}
	if i < len(b.vals) && b.vals[i] == to {
		b.bits[i] |= bit
		return
	}
	b.vals = append(b.vals, 0)
	b.bits = append(b.bits, 0)
	copy(b.vals[i+1:], b.vals[i:])
	copy(b.bits[i+1:], b.bits[i:])
	b.vals[i], b.bits[i] = to, bit
}
