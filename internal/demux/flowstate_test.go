package demux

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ppsim/internal/cell"
)

// maskEnv serves whatever free-gate mask the test set before a Slot call.
type maskEnv struct {
	*fakeEnv
	mask uint64
}

func (e *maskEnv) FreeGateMask(cell.Port, cell.Time) uint64 { return e.mask }

// TestLeastLoadedMatchesScanReference pins the by-value flow column against
// the obvious implementation: a map from flow to K counters and an O(K)
// lowest-index scan over the free planes. One flow is first pushed past the
// inline bucket capacity, so the spill to the heap is covered too.
func TestLeastLoadedMatchesScanReference(t *testing.T) {
	for _, k := range []int{8, 32, 64} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			const ports, steps = 24, 20000
			rng := rand.New(rand.NewSource(int64(k)))
			env := &maskEnv{fakeEnv: newFakeEnv(ports, k, 1)}
			a, err := NewLocalLeastLoaded(env)
			if err != nil {
				t.Fatal(err)
			}
			ref := map[cell.Flow][]uint64{}
			scan := func(f cell.Flow, mask uint64) cell.Plane {
				counts := ref[f]
				if counts == nil {
					counts = make([]uint64, k)
					ref[f] = counts
				}
				best := cell.NoPlane
				for p := 0; p < k; p++ {
					if mask&(1<<uint(p)) != 0 && (best == cell.NoPlane || counts[p] < counts[best]) {
						best = cell.Plane(p)
					}
				}
				return best
			}
			slot := cell.Time(0)
			dispatch := func(f cell.Flow, mask uint64) {
				t.Helper()
				want := scan(f, mask)
				env.mask = mask
				sends, err := a.Slot(slot, []cell.Cell{cell.New(uint64(slot), 0, f, slot)})
				if err != nil {
					t.Fatalf("slot %d: %v", slot, err)
				}
				if got := sends[0].Plane; got != want {
					t.Fatalf("slot %d flow %v mask %#x: plane %d, scan says %d (counts %v)", slot, f, mask, got, want, ref[f])
				}
				ref[f][want]++
				slot++
			}

			// Plane p alone is free p+1 times: the flow then holds k distinct
			// counter values, more than the inline capacity.
			deep := cell.Flow{In: 3, Out: 5}
			for p := 0; p < k; p++ {
				for i := 0; i <= p; i++ {
					dispatch(deep, 1<<uint(p))
				}
			}
			id, _ := a.ids.Find(deep)
			if vals := a.flows.At(int(id) - 1).vals; cap(vals) <= bucketInline {
				t.Fatalf("flow holds %d buckets in capacity %d: never spilled", len(vals), cap(vals))
			}

			full := ^uint64(0) >> uint(64-k)
			for step := 0; step < steps; step++ {
				f := cell.Flow{In: cell.Port(rng.Intn(ports)), Out: cell.Port(rng.Intn(ports))}
				mask := rng.Uint64() & full
				switch {
				case step%5 == 0:
					mask = full
				case mask == 0:
					mask = 1 << uint(rng.Intn(k))
				}
				dispatch(f, mask)
			}
			if a.flows.Len() != len(ref) {
				t.Errorf("column holds %d flows, reference %d", a.flows.Len(), len(ref))
			}
			for f := range ref {
				if got, _ := a.WouldChoose(f.In, f.Out); got != scan(f, full) {
					t.Errorf("WouldChoose%v = %d, scan says %d", f, got, scan(f, full))
				}
			}
		})
	}
}

// TestLeastLoadedProbeDoesNotInsert pins WouldChoose as a pure read: probing
// every flow of a fresh instance adds no flow state, and the probed instance
// then dispatches exactly like an unprobed twin.
func TestLeastLoadedProbeDoesNotInsert(t *testing.T) {
	probeDoesNotInsert(t, func(e Env) (Algorithm, error) { return NewLocalLeastLoaded(e) }, func(a Algorithm) (int, int) {
		ll := a.(*LocalLeastLoaded)
		return ll.ids.Len(), ll.flows.Len()
	})
}

// TestPerFlowProbeDoesNotInsert is TestLeastLoadedProbeDoesNotInsert for the
// other two algorithms that keep per-flow state: FTD and per-flow
// round-robin.
func TestPerFlowProbeDoesNotInsert(t *testing.T) {
	t.Run("ftd-h2", func(t *testing.T) {
		probeDoesNotInsert(t, func(e Env) (Algorithm, error) { return NewFTD(e, 2) }, func(a Algorithm) (int, int) {
			ftd := a.(*FTD)
			return ftd.ids.Len(), ftd.flows.Len()
		})
	})
	t.Run("perflow-rr", func(t *testing.T) {
		probeDoesNotInsert(t, func(e Env) (Algorithm, error) { return NewRoundRobin(e, PerFlow) }, func(a Algorithm) (int, int) {
			rr := a.(*RoundRobin)
			return rr.fids.Len(), rr.fptr.Len()
		})
	})
}

// probeDoesNotInsert probes every flow of a fresh instance, checks that held
// (its flow ids and flow records) stays empty, then drives it beside an
// unprobed twin: both must dispatch identically.
func probeDoesNotInsert(t *testing.T, mk func(Env) (Algorithm, error), held func(Algorithm) (ids, records int)) {
	t.Helper()
	const n, k, rp = 8, 4, 2
	eProbed, eTwin := newFakeEnv(n, k, rp), newFakeEnv(n, k, rp)
	probed, err := mk(eProbed)
	if err != nil {
		t.Fatal(err)
	}
	twin, _ := mk(eTwin)
	for in := cell.Port(0); in < n; in++ {
		for out := cell.Port(0); out < n; out++ {
			if p, ok := probed.(Prober).WouldChoose(in, out); !ok || p != 0 {
				t.Fatalf("WouldChoose(%d, %d) on a fresh instance = %d, %v; want 0, true", in, out, p, ok)
			}
		}
	}
	if ids, records := held(probed); ids != 0 || records != 0 {
		t.Fatalf("probing inserted %d flows (%d records)", ids, records)
	}
	st, stTwin := cell.NewStamper(), cell.NewStamper()
	for slot := cell.Time(0); slot < 64; slot++ {
		in, out := cell.Port(slot%n), cell.Port(slot*3%n)
		got := exec(t, eProbed, probed, slot, arr(st, slot, in, out))
		want := exec(t, eTwin, twin, slot, arr(stTwin, slot, in, out))
		if got[0].Plane != want[0].Plane {
			t.Fatalf("slot %d: probed instance chose %d, twin %d", slot, got[0].Plane, want[0].Plane)
		}
	}
}

// TestPerFlowConstructorsAllocateNoFlowTable: at the N = 1024 headline
// geometry the three per-flow algorithms allocate nothing per possible flow
// before their first one; an N² id table (4 MiB of ids) fails the guard.
func TestPerFlowConstructorsAllocateNoFlowTable(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; guard only meaningful on plain builds")
	}
	const n, k, rp, budget = 1024, 8, 2, 64 << 10
	e := newFakeEnv(n, k, rp)
	for _, c := range []struct {
		name string
		mk   func(Env) (Algorithm, error)
	}{
		{"least-loaded", func(e Env) (Algorithm, error) { return NewLocalLeastLoaded(e) }},
		{"ftd-h2", func(e Env) (Algorithm, error) { return NewFTD(e, 2) }},
		{"perflow-rr", func(e Env) (Algorithm, error) { return NewRoundRobin(e, PerFlow) }},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := c.mk(e)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
			t.Errorf("%s at N=%d allocated %d bytes before its first flow, want < %d", c.name, n, got, budget)
		}
	}
}

// wideEnv claims one plane more than plane sets can hold.
type wideEnv struct{ *fakeEnv }

func (wideEnv) Planes() int { return MaxPlanes + 1 }

// TestPerFlowStateRejectsTooManyPlanes: both per-flow algorithms keep plane
// sets in one word, so a K > MaxPlanes Env is an error, not a silent mask.
func TestPerFlowStateRejectsTooManyPlanes(t *testing.T) {
	e := wideEnv{newFakeEnv(2, 2, 1)}
	if _, err := NewLocalLeastLoaded(e); err == nil {
		t.Errorf("least-loaded accepted K=%d", e.Planes())
	}
	if _, err := NewFTD(e, 2); err == nil {
		t.Errorf("ftd accepted K=%d", e.Planes())
	}
}

// boolFTD is FTD with a heap record and a []bool used-set per flow, the
// layout the by-value column replaced: the reference for
// TestFTDMatchesBoolReference.
type boolFTD struct {
	env   *fakeEnv
	block int
	flows map[cell.Flow]*boolFTDFlow
	falls uint64
}

type boolFTDFlow struct {
	used    []bool
	inBlock int
	ptr     cell.Plane
}

func (a *boolFTD) slot(t cell.Time, arrivals []cell.Cell) ([]Send, error) {
	var sends []Send
	for _, c := range arrivals {
		fs := a.flows[c.Flow]
		if fs == nil {
			fs = &boolFTDFlow{used: make([]bool, a.env.Planes())}
			a.flows[c.Flow] = fs
		}
		p := scanFree(a.env, c.Flow.In, t, fs.ptr, func(k cell.Plane) bool { return !fs.used[k] })
		if p == cell.NoPlane {
			p = scanFree(a.env, c.Flow.In, t, fs.ptr, nil)
			if p == cell.NoPlane {
				return nil, fmt.Errorf("reference: input %d has no free gate at slot %d", c.Flow.In, t)
			}
			a.falls++
		}
		fs.used[p] = true
		fs.inBlock++
		fs.ptr = (p + 1) % cell.Plane(a.env.Planes())
		if fs.inBlock == a.block {
			fs.inBlock = 0
			for i := range fs.used {
				fs.used[i] = false
			}
		}
		sends = append(sends, Send{Cell: c, Plane: p})
	}
	return sends, nil
}

// TestFTDMatchesBoolReference drives FTD and the []bool reference through
// identical arrivals and gate histories: every send and the fallback count
// must match. The block = K rows force fallbacks.
func TestFTDMatchesBoolReference(t *testing.T) {
	for _, c := range []struct {
		k  int
		rp int64
		h  float64
	}{
		{8, 2, 2}, {8, 3, 2.5}, {64, 8, 2}, {64, 4, 16},
	} {
		t.Run(fmt.Sprintf("k%d/rp%d/h%g", c.k, c.rp, c.h), func(t *testing.T) {
			const n, slots = 8, 3000
			e, eRef := newFakeEnv(n, c.k, c.rp), newFakeEnv(n, c.k, c.rp)
			a, err := NewFTD(e, c.h)
			if err != nil {
				t.Fatal(err)
			}
			ref := &boolFTD{env: eRef, block: a.BlockSize(), flows: map[cell.Flow]*boolFTDFlow{}}
			rng := rand.New(rand.NewSource(int64(c.k) * int64(c.rp)))
			st := cell.NewStamper()
			var cells []cell.Cell
			for slot := cell.Time(0); slot < slots; slot++ {
				cells = cells[:0]
				for in := 0; in < n; in++ {
					if rng.Intn(5) != 0 {
						cells = append(cells, arr(st, slot, cell.Port(in), cell.Port(rng.Intn(n))))
					}
				}
				want, err := ref.slot(slot, cells)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range want {
					if err := eRef.gates.Gate(int(s.Cell.Flow.In), int(s.Plane)).Seize(slot); err != nil {
						t.Fatal(err)
					}
				}
				got := exec(t, e, a, slot, cells...)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("slot %d: sends diverge\n got %v\nwant %v", slot, got, want)
				}
			}
			if a.Fallbacks() != ref.falls {
				t.Errorf("Fallbacks = %d, reference %d", a.Fallbacks(), ref.falls)
			}
			if a.BlockSize() == c.k && ref.falls == 0 {
				t.Errorf("block = K row produced no fallback")
			}
		})
	}
}

// TestPerFlowSlotAllocFree: once every flow has been seen, least-loaded and
// FTD dispatch without touching the heap.
func TestPerFlowSlotAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; guard only meaningful on plain builds")
	}
	for _, c := range []struct {
		name string
		mk   func(Env) (Algorithm, error)
	}{
		{"least-loaded", func(e Env) (Algorithm, error) { return NewLocalLeastLoaded(e) }},
		{"ftd-h2", func(e Env) (Algorithm, error) { return NewFTD(e, 2) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			const n, k, rp = 8, 8, 2
			e := newFakeEnv(n, k, rp)
			a, err := c.mk(e)
			if err != nil {
				t.Fatal(err)
			}
			cells := make([]cell.Cell, n)
			slot := cell.Time(0)
			step := func() {
				for in := range cells {
					f := cell.Flow{In: cell.Port(in), Out: cell.Port((in + int(slot)) % n)}
					cells[in] = cell.New(uint64(slot)*n+uint64(in), 0, f, slot)
				}
				sends, err := a.Slot(slot, cells)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range sends {
					if err := e.gates.Gate(int(s.Cell.Flow.In), int(s.Plane)).Seize(slot); err != nil {
						t.Fatal(err)
					}
				}
				slot++
			}
			for slot < 16*n { // every flow seen 16 times
				step()
			}
			if allocs := testing.AllocsPerRun(256, step); allocs != 0 {
				t.Errorf("steady-state Slot allocates %.2f times per slot, want 0", allocs)
			}
		})
	}
}
