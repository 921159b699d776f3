package demux

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"ppsim/internal/cell"
)

// newPlaneBuckets returns the structure for k planes over storage of its
// own, with a least-loaded flow's inline capacity.
func newPlaneBuckets(k int) *planeBuckets {
	b := &planeBuckets{}
	b.init(k, make([]uint64, 2*bucketInline))
	return b
}

// keysOf checks the bucket invariants — keys strictly ascending, plane sets
// nonempty, disjoint and covering the k planes — and reads every plane's
// key back from its bucket.
func keysOf(t *testing.T, b *planeBuckets, k int) []uint64 {
	t.Helper()
	keys := make([]uint64, k)
	var seen uint64
	for i, bm := range b.bits {
		if bm == 0 || seen&bm != 0 || (i > 0 && b.vals[i-1] >= b.vals[i]) {
			t.Fatalf("malformed buckets: vals %v bits %#x", b.vals, b.bits)
		}
		seen |= bm
		for ; bm != 0; bm &= bm - 1 {
			keys[bits.TrailingZeros64(bm)] = b.vals[i]
		}
	}
	if seen != ^uint64(0)>>uint(64-k) {
		t.Fatalf("buckets hold planes %#x, want all %d", seen, k)
	}
	return keys
}

// TestPlaneBucketsMatchScan pins least-loaded's use of the buckets to the
// historical counter scan: for random masks and increment sequences,
// first(mask) must return exactly the plane `counts[p] < counts[best]` over
// ascending p picks, and its count, and the keys read back from the buckets
// must equal the counters.
func TestPlaneBucketsMatchScan(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8, 32, 64} {
		rng := rand.New(rand.NewSource(int64(k)))
		pb := newPlaneBuckets(k)
		counts := make([]uint64, k)
		full := ^uint64(0) >> uint(64-k)
		for step := 0; step < 5000; step++ {
			mask := rng.Uint64() & full
			if step%7 == 0 {
				mask = full
			}
			want := cell.NoPlane
			for p := 0; p < k; p++ {
				if mask&(1<<uint(p)) == 0 {
					continue
				}
				if want == cell.NoPlane || counts[p] < counts[want] {
					want = cell.Plane(p)
				}
			}
			got, n := pb.first(mask)
			if got != want {
				t.Fatalf("k=%d step %d: first(%#x) = %d, scan says %d (counts %v)", k, step, mask, got, want, counts)
			}
			if got == cell.NoPlane {
				continue
			}
			if n != counts[got] {
				t.Fatalf("k=%d step %d: first(%#x) keys plane %d at %d, counter is %d", k, step, mask, got, n, counts[got])
			}
			// Mostly advance the chosen plane (the production pattern), but
			// sometimes a random one, to diversify the bucket shapes.
			p := got
			if step%11 == 0 {
				p = cell.Plane(rng.Intn(k))
			}
			pb.move(p, counts[p], counts[p]+1)
			counts[p]++
			if keys := keysOf(t, pb, k); !reflect.DeepEqual(keys, counts) {
				t.Fatalf("k=%d step %d: bucket keys diverged: %v vs %v", k, step, keys, counts)
			}
		}
	}
}

// TestLinkBucketsMatchScan pins CPA's use of the buckets — clamp to the
// slot, first over the free mask, move by a hold — to the clamped-argmin
// scan: first must return the plane in mask whose max(next, t) is earliest
// with lowest-index ties (including planes whose raw next differs but
// clamps equal — the merge-on-clamp case), over CPA's K-bucket storage.
func TestLinkBucketsMatchScan(t *testing.T) {
	for _, k := range []int{1, 2, 8, 64} {
		rng := rand.New(rand.NewSource(int64(100 + k)))
		var lb planeBuckets
		lb.init(k, make([]uint64, 2*k))
		next := make([]uint64, k)
		full := ^uint64(0) >> uint(64-k)
		now := uint64(0)
		for step := 0; step < 5000; step++ {
			now += uint64(rng.Intn(3))
			mask := rng.Uint64() & full
			if mask == 0 {
				mask = full
			}
			want := cell.NoPlane
			var wantNext uint64
			for p := 0; p < k; p++ {
				if mask&(1<<uint(p)) == 0 {
					continue
				}
				nx := max(next[p], now)
				if want == cell.NoPlane || nx < wantNext {
					want, wantNext = cell.Plane(p), nx
				}
			}
			lb.clamp(now)
			gotP, gotNext := lb.first(mask)
			if gotP != want || gotNext != wantNext {
				t.Fatalf("k=%d step %d t=%d: first(%#x) = (%d, %d), scan says (%d, %d); next %v",
					k, step, now, mask, gotP, gotNext, want, wantNext, next)
			}
			hold := gotNext + uint64(1+rng.Intn(4))
			lb.move(gotP, gotNext, hold)
			next[gotP] = hold
			for p, key := range keysOf(t, &lb, k) {
				if key != max(next[p], now) {
					t.Fatalf("k=%d step %d t=%d: plane %d keyed %d, clamped scan says %d", k, step, now, p, key, max(next[p], now))
				}
			}
			if cap(lb.vals) != k || cap(lb.bits) != k {
				t.Fatalf("k=%d step %d: %d buckets spilled out of K-bucket storage", k, step, len(lb.vals))
			}
		}
	}
}

// TestRandomMatchesFreeListReference pins the bitmask order-statistics draw
// to the historical implementation: build the ascending free list, draw
// Intn(len(free)), index it — the dispatch sequence must match plane-for-plane
// off identical RNG streams.
func TestRandomMatchesFreeListReference(t *testing.T) {
	const n, k, rp, slots, seed = 4, 8, 3, 400, 42

	// Arrival pattern shared by both runs: pat[slot][in] destination,
	// cell.Port(-1) meaning no arrival at that input.
	patRNG := rand.New(rand.NewSource(99))
	pat := make([][]cell.Port, slots)
	for s := range pat {
		pat[s] = make([]cell.Port, n)
		for in := range pat[s] {
			if patRNG.Intn(3) == 0 {
				pat[s][in] = cell.Port(patRNG.Intn(n))
			} else {
				pat[s][in] = cell.Port(-1)
			}
		}
	}

	// Reference: the historical free-list algorithm, replicated verbatim.
	ref := func() []cell.Plane {
		e := newFakeEnv(n, k, rp)
		rngs := make([]*rand.Rand, n)
		for i := range rngs {
			rngs[i] = rand.New(rand.NewSource(seed + int64(i)))
		}
		var out []cell.Plane
		for s := cell.Time(0); s < slots; s++ {
			for in := 0; in < n; in++ {
				if pat[s][in] < 0 {
					continue
				}
				var free []cell.Plane
				for p := 0; p < k; p++ {
					if e.gateFreeAt(cell.Port(in), cell.Plane(p)) <= s {
						free = append(free, cell.Plane(p))
					}
				}
				if len(free) == 0 {
					t.Fatalf("reference: no free gate at slot %d input %d", s, in)
				}
				p := free[rngs[in].Intn(len(free))]
				if err := e.gates.Gate(in, int(p)).Seize(s); err != nil {
					t.Fatal(err)
				}
				out = append(out, p)
			}
		}
		return out
	}()

	got := func() []cell.Plane {
		fe := newFakeEnv(n, k, rp)
		a, err := NewRandom(fe, seed)
		if err != nil {
			t.Fatal(err)
		}
		st := cell.NewStamper()
		var out []cell.Plane
		var cells []cell.Cell
		for s := cell.Time(0); s < slots; s++ {
			cells = cells[:0]
			for in := 0; in < n; in++ {
				if pat[s][in] >= 0 {
					cells = append(cells, st.Stamp(cell.Flow{In: cell.Port(in), Out: pat[s][in]}, s))
				}
			}
			sends, err := a.Slot(s, cells)
			if err != nil {
				t.Fatalf("slot %d: %v", s, err)
			}
			for _, snd := range sends {
				if err := fe.gates.Gate(int(snd.Cell.Flow.In), int(snd.Plane)).Seize(s); err != nil {
					t.Fatal(err)
				}
				out = append(out, snd.Plane)
			}
		}
		return out
	}()

	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("Random diverged from free-list reference:\n got %v\nwant %v", got, ref)
	}
}

// BenchmarkPlaneArgmin contrasts the historical O(K) counter scan with the
// bucketed O(1)-amortized structure across plane counts (satellite:
// profile-guided evidence for Layer 2). All gates free — the pure selection
// cost, no Env in the loop.
func BenchmarkPlaneArgmin(b *testing.B) {
	for _, k := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("scan/k%d", k), func(b *testing.B) {
			counts := make([]uint64, k)
			for i := 0; i < b.N; i++ {
				best := 0
				for p := 1; p < k; p++ {
					if counts[p] < counts[best] {
						best = p
					}
				}
				counts[best]++
			}
		})
		b.Run(fmt.Sprintf("buckets/k%d", k), func(b *testing.B) {
			pb := newPlaneBuckets(k)
			full := ^uint64(0) >> uint(64-k)
			for i := 0; i < b.N; i++ {
				p, n := pb.first(full)
				pb.move(p, n, n+1)
			}
		})
	}
}
