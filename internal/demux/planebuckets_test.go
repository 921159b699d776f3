package demux

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ppsim/internal/cell"
)

// newPlaneBuckets returns the structure for k planes over storage of its own.
func newPlaneBuckets(k int) *planeBuckets {
	b := &planeBuckets{}
	b.init(k, make([]uint64, planeBucketWords(k)))
	return b
}

// TestPlaneBucketsMatchScan pins the bucketed argmin to the historical
// counter scan: for random masks and increment sequences, argmin(mask) must
// return exactly the plane `counts[p] < counts[best]` over ascending p picks.
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
			got := pb.argmin(mask)
			if got != want {
				t.Fatalf("k=%d step %d: argmin(%#x) = %d, scan says %d (counts %v)", k, step, mask, got, want, counts)
			}
			if got == cell.NoPlane {
				continue
			}
			// Mostly advance the chosen plane (the production pattern), but
			// sometimes a random one, to diversify the bucket shapes.
			p := got
			if step%11 == 0 {
				p = cell.Plane(rng.Intn(k))
			}
			pb.inc(p)
			counts[p]++
			if !reflect.DeepEqual(pb.count, counts) {
				t.Fatalf("k=%d step %d: bucket counters diverged: %v vs %v", k, step, pb.count, counts)
			}
		}
	}
}

// TestLinkBucketsMatchScan pins linkBuckets to the clamped-argmin scan the
// cpa-sets wide path performs: choose must return the plane in mask whose
// max(next, t) is earliest with lowest-index ties (including planes whose
// raw next differs but clamps equal — the merge-on-clamp case).
func TestLinkBucketsMatchScan(t *testing.T) {
	for _, k := range []int{1, 2, 8, 64} {
		rng := rand.New(rand.NewSource(int64(100 + k)))
		lb := newLinkBuckets(k)
		next := make([]cell.Time, k)
		full := ^uint64(0) >> uint(64-k)
		now := cell.Time(0)
		for step := 0; step < 5000; step++ {
			now += cell.Time(rng.Intn(3))
			mask := rng.Uint64() & full
			if mask == 0 {
				mask = full
			}
			want := cell.NoPlane
			var wantNext cell.Time
			for p := 0; p < k; p++ {
				if mask&(1<<uint(p)) == 0 {
					continue
				}
				nx := next[p]
				if nx < now {
					nx = now
				}
				if want == cell.NoPlane || nx < wantNext {
					want, wantNext = cell.Plane(p), nx
				}
			}
			gotP, gotNext := lb.choose(mask, now)
			if gotP != want || gotNext != wantNext {
				t.Fatalf("k=%d step %d t=%d: choose(%#x) = (%d, %d), scan says (%d, %d); next %v",
					k, step, now, mask, gotP, gotNext, want, wantNext, next)
			}
			hold := gotNext + cell.Time(1+rng.Intn(4))
			lb.move(gotP, gotNext, hold)
			next[gotP] = hold
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
				pb.inc(pb.argmin(full))
			}
		})
	}
}
