package demux

import (
	"math/bits"

	"ppsim/internal/cell"
)

// planeBuckets is the incremental bucketed-counter argmin over per-plane
// dispatch counts: planes are grouped by counter value
// into ascending buckets, each bucket a (value, plane-bitmask) pair, so
// "least-loaded free plane, lowest index on ties" is answered by scanning
// buckets from the front and taking the lowest set bit of bits & freeMask —
// exactly the plane the O(K) scan `if counts[p] < counts[best]` picks,
// because buckets ascend by value and the lowest set bit is the lowest
// index within a value class.
//
// inc moves one plane from its bucket to the value-above bucket. Because a
// counter only ever grows by one, the target bucket is adjacent (or created
// in place), so the slice juggling is O(distinct values touched) — O(1)
// amortized over a run, and in the common saturated state (all counts within
// one of each other) exactly two buckets exist.
//
// The three slices are cut from caller-provided storage (init), so a table
// of flows can keep its structures by value over shared slabs: vals and
// bits start with room for bucketInline buckets each, and a flow that ever
// holds more distinct counter values spills to the heap through append.
type planeBuckets struct {
	count []uint64 // per-plane dispatch counters (the scan's counts slice)
	vals  []uint64 // ascending distinct counter values present
	bits  []uint64 // bits[i] = planes whose counter equals vals[i]; never 0
}

// bucketInline is the bucket capacity a planeBuckets gets from its storage
// before spilling; the saturated steady state needs two.
const bucketInline = 4

// planeBucketWords is the storage init takes for k planes.
func planeBucketWords(k int) int { return k + 2*bucketInline }

// init sets up the structure for k planes, all counters zero, over words
// (zeroed, planeBucketWords(k) long). k must be in (0, 64].
func (b *planeBuckets) init(k int, words []uint64) {
	b.count = words[:k:k]
	b.vals = words[k : k+1 : k+bucketInline]
	b.bits = words[k+bucketInline : k+bucketInline+1 : k+2*bucketInline]
	b.bits[0] = ^uint64(0) >> uint(64-k)
}

// argmin returns the lowest-indexed plane among those in mask with the
// minimal counter, or cell.NoPlane when mask selects no plane.
func (b *planeBuckets) argmin(mask uint64) cell.Plane {
	for _, bm := range b.bits {
		if hit := bm & mask; hit != 0 {
			return cell.Plane(bits.TrailingZeros64(hit))
		}
	}
	return cell.NoPlane
}

// inc advances plane p's counter by one, relocating its bucket bit.
func (b *planeBuckets) inc(p cell.Plane) {
	c := b.count[p]
	b.count[p] = c + 1
	i := 0
	for b.vals[i] != c {
		i++
	}
	bit := uint64(1) << uint(p)
	next := i + 1
	if b.bits[i] == bit {
		// p was the bucket's last plane: absorb into an adjacent c+1 bucket,
		// or just relabel this one in place.
		if next < len(b.vals) && b.vals[next] == c+1 {
			b.bits[next] |= bit
			b.vals = append(b.vals[:i], b.vals[next:]...)
			b.bits = append(b.bits[:i], b.bits[next:]...)
		} else {
			b.vals[i] = c + 1
		}
		return
	}
	b.bits[i] &^= bit
	if next < len(b.vals) && b.vals[next] == c+1 {
		b.bits[next] |= bit
		return
	}
	b.vals = append(b.vals, 0)
	b.bits = append(b.bits, 0)
	copy(b.vals[next+1:], b.vals[next:])
	copy(b.bits[next+1:], b.bits[next:])
	b.vals[next] = c + 1
	b.bits[next] = bit
}
