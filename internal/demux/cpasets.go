package demux

import (
	"fmt"
	"math/bits"

	"ppsim/internal/cell"
	"ppsim/internal/shadow"
)

// CPASets is a second, independent implementation of the centralized CPA,
// written the way Iyer, Awadallah and McKeown present it: via the
// *available input link set* AIL(i, t) — planes to which input i may start
// a transmission at slot t — and the *available output link set*
// AOL(j, DT) — planes whose line to output j can deliver a cell no later
// than the cell's shadow departure time DT. A cell is placed on any plane
// in the intersection; with S >= 2 both sets exceed K/2 so the intersection
// is nonempty.
//
// It exists for differential testing against the production CPA (which
// folds the same logic into per-line availability counters): two
// independent derivations of the same algorithm must exhibit identical
// zero-relative-delay behaviour, and the sets formulation doubles as
// executable documentation of the original paper's proof structure.
//
// Selection reduces to one argmin: both the preferred AIL∩AOL choice and
// the degraded empty-intersection choice pick the AIL plane whose clamped
// line time max(linkNext, t) is earliest (ties: lowest plane index), with a
// miss counted exactly when that minimum exceeds the deadline — so the
// per-output linkBuckets structure answers each cell in O(1) amortized
// (DESIGN.md §15 carries the equivalence argument).
type CPASets struct {
	sendScratch
	env    Env
	oracle *shadow.Oracle
	// links[j] buckets planes by their (k, j) line's next-free slot: the
	// earliest slot a new cell can cross it, assuming earlier assignments
	// drain greedily.
	links  []linkBuckets
	misses uint64
}

// NewCPASets returns the sets-formulation CPA.
func NewCPASets(env Env) (*CPASets, error) {
	n, k := env.Ports(), env.Planes()
	a := &CPASets{
		env:    env,
		oracle: shadow.NewOracle(n),
		links:  make([]linkBuckets, n),
	}
	for j := range a.links {
		a.links[j] = newLinkBuckets(k)
	}
	return a, nil
}

// Name implements Algorithm.
func (a *CPASets) Name() string { return "cpa-sets" }

// Misses reports cells whose AIL/AOL intersection was empty (never at
// S >= 2 under admissible traffic).
func (a *CPASets) Misses() uint64 { return a.misses }

// Slot implements Algorithm.
func (a *CPASets) Slot(t cell.Time, arrivals []cell.Cell) ([]Send, error) {
	if len(arrivals) == 0 {
		return nil, nil
	}
	sends := a.take()
	for _, c := range arrivals {
		deadline := a.oracle.Departure(t, c.Flow.Out)
		mask := a.env.FreeGateMask(c.Flow.In, t)
		if mask == 0 {
			return nil, fmt.Errorf("demux: cpa-sets input %d has no free gate at slot %d", c.Flow.In, t)
		}
		lb := &a.links[c.Flow.Out]
		chosen, next := lb.choose(mask, t)
		if next > deadline {
			a.misses++
		}
		lb.move(chosen, next, next+cell.Time(a.env.RPrime()))
		sends = append(sends, Send{Cell: c, Plane: chosen})
	}
	return a.keep(sends), nil
}

// Buffered implements Algorithm (bufferless).
func (a *CPASets) Buffered(cell.Port) int { return 0 }

// linkBuckets buckets the K planes of one output by the next-free slot of
// their (plane, output) line: vals ascends, bits[i] holds the planes whose
// line frees at vals[i], and every plane is in exactly one bucket. clamp
// lazily merges every bucket at or below the current slot into one front
// bucket valued at the slot — max(linkNext, t) collapses those planes into
// one value class, and merging keeps the lowest-set-bit tie-break equal to
// the lowest-index scan across the whole class.
type linkBuckets struct {
	vals []cell.Time
	bits []uint64
}

// newLinkBuckets returns the structure for k planes, all lines free since
// slot 0. k must be in (0, 64].
func newLinkBuckets(k int) linkBuckets {
	return linkBuckets{vals: []cell.Time{0}, bits: []uint64{^uint64(0) >> uint(64-k)}}
}

// clamp merges every bucket with value <= t into the front bucket, raised
// to value t. Amortized O(1): a bucket is merged at most once per creation.
func (b *linkBuckets) clamp(t cell.Time) {
	if b.vals[0] >= t {
		return
	}
	m := 0
	var acc uint64
	for m < len(b.vals) && b.vals[m] <= t {
		acc |= b.bits[m]
		m++
	}
	b.vals[m-1] = t
	b.bits[m-1] = acc
	if m > 1 {
		b.vals = append(b.vals[:0], b.vals[m-1:]...)
		b.bits = append(b.bits[:0], b.bits[m-1:]...)
	}
}

// choose returns the plane in mask whose clamped line time max(val, t) is
// earliest, ties to the lowest plane index, together with that time. mask
// must be nonzero.
func (b *linkBuckets) choose(mask uint64, t cell.Time) (cell.Plane, cell.Time) {
	b.clamp(t)
	for i, bm := range b.bits {
		if hit := bm & mask; hit != 0 {
			return cell.Plane(bits.TrailingZeros64(hit)), b.vals[i]
		}
	}
	return cell.NoPlane, 0
}

// move relocates plane p from the bucket valued `from` to the one valued
// `to` (creating/removing buckets as needed). to must be > from.
func (b *linkBuckets) move(p cell.Plane, from, to cell.Time) {
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
	}
	j := i
	for j < len(b.vals) && b.vals[j] < to {
		j++
	}
	if j < len(b.vals) && b.vals[j] == to {
		b.bits[j] |= bit
		return
	}
	b.vals = append(b.vals, 0)
	b.bits = append(b.bits, 0)
	copy(b.vals[j+1:], b.vals[j:])
	copy(b.bits[j+1:], b.bits[j:])
	b.vals[j] = to
	b.bits[j] = bit
}
