package fabric

import (
	"math"
	"runtime"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
)

// flowBytesBudget bounds what driving the 2048-flow run below may allocate,
// fabric construction excluded; it measures 0.82 MiB on linux/amd64 with
// Go 1.24. The per-flow columns (order referee, resequencer cursors) cost
// one 32 KiB page each here; the rest is the plane queues, the output heaps
// and the cell store reaching the run's backlog. A referee or resequencer
// table sized N² — one N-entry row per output, 2 × 1024 rows of 8 KiB —
// spends 16 MiB more and fails the guard.
const flowBytesBudget = 2 << 20

// TestPerFlowStateSizedToFlows is the deterministic bytes guard for the
// per-flow tables at the headline geometry: N = 1024, K = 8, carrying 2048
// distinct flows spread over every output (two per output, one per input
// per slot), four cells each, until the switch drains.
func TestPerFlowStateSizedToFlows(t *testing.T) {
	const n, flows, cellsPerFlow = 1024, 2048, 4
	p, err := New(Config{N: n, K: 8, RPrime: 2}, rrFactory(demux.PerInput))
	if err != nil {
		t.Fatal(err)
	}
	// Stamp every cell before measuring: the Stamper is the harness's table,
	// not the fabric's. Slot s carries flow block s%2 — inputs 0..n-1 to
	// outputs in (block 0) or in+n/2 (block 1) — so each input sends one
	// cell per slot and each output hears from two flows.
	st := cell.NewStamper()
	slots := make([][]cell.Cell, 2*cellsPerFlow)
	for s := range slots {
		block := s % 2
		for in := 0; in < n; in++ {
			f := cell.Flow{In: cell.Port(in), Out: cell.Port((in + block*n/2) % n)}
			slots[s] = append(slots[s], st.Stamp(f, cell.Time(s)))
		}
	}
	deps := make([]cell.Cell, 0, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	slot := cell.Time(0)
	for ; slot < cell.Time(len(slots)) || !p.Drained(); slot++ {
		var arrivals []cell.Cell
		if int(slot) < len(slots) {
			arrivals = slots[slot]
		}
		if deps, err = p.Step(slot, arrivals, deps[:0]); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if slot > 10_000 {
			t.Fatalf("switch did not drain (backlog %d)", p.Backlog())
		}
	}
	runtime.ReadMemStats(&after)
	if p.Departed() != flows*cellsPerFlow {
		t.Fatalf("departed %d cells, want %d", p.Departed(), flows*cellsPerFlow)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > flowBytesBudget {
		t.Errorf("driving %d flows allocated %.2f MiB, budget %.2f MiB: is a per-flow table sized N² again?",
			flows, float64(got)/(1<<20), float64(flowBytesBudget)/(1<<20))
	} else {
		t.Logf("driving %d flows over %d slots allocated %.2f MiB", flows, slot, float64(got)/(1<<20))
	}
}

// TestNewBytesPerPortPlane bounds what fabric.New allocates per (port,
// plane) at N = 16384, K = 8, where the K·N plane queues and the 2·K·N
// line gates are most of the fabric. A queue is a 12-byte cell.List, a
// gate one 8-byte free-at slot, an output's resequencer holds no parked
// table, no emittable heap, no pull scratch, no drop table and no
// pull-policy interface of its own, and the busy outputs are one bit
// each: 50.6 B per (port, plane) on linux/amd64 with Go 1.24 (50.5 before
// the store reserved its first 128 cells at construction). A drop-table
// pointer and a busy flag per output put it at 51.6 B, the policy
// interface value at 53.6 B, the emittable heap's slice header at 56.6 B,
// a per-output parked table and scratch at 64.6 B, and ring-buffer queue
// headers (40 B) with 16-byte gates at 106.6 B; the last two fail the
// guard.
func TestNewBytesPerPortPlane(t *testing.T) {
	const n, k, budget = 16384, 8, 60
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := New(Config{N: n, K: k, RPrime: 2}, rrFactory(demux.PerInput))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / (n * k)
	if per > budget {
		t.Errorf("fabric.New allocated %.1f B per (port, plane), budget %d B", per, budget)
	} else {
		t.Logf("fabric.New allocated %.1f B per (port, plane)", per)
	}
	runtime.KeepAlive(p)
}

// fewestMallocs returns the fewest mallocs one call of f made over five
// tries: the runtime's own background allocations only ever add to a count.
func fewestMallocs(f func()) float64 {
	fewest := math.Inf(1)
	for try := 0; try < 5; try++ {
		fewest = min(fewest, testing.AllocsPerRun(1, f))
	}
	return fewest
}

// TestNewAllocsFlatInKAndN is the object-count guard of fabric.New: the
// planes, their K·N queues (one slab) and both gate banks are held by
// value, and every per-port table is one slice, so building a fabric makes
// the same number of objects at every K and N. A plane or a gate bank
// allocated on its own (two objects per plane, one header per bank) makes
// the count grow with K and fails the guard.
func TestNewAllocsFlatInKAndN(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; guard only meaningful on plain builds")
	}
	var want float64
	for _, n := range []int{8, 1024} {
		for _, k := range []int{2, 8, 64} {
			allocs := fewestMallocs(func() {
				if _, err := New(Config{N: n, K: k, RPrime: 2}, rrFactory(demux.PerInput)); err != nil {
					t.Fatal(err)
				}
			})
			if want == 0 {
				want = allocs
				t.Logf("fabric.New makes %.0f objects", allocs)
			}
			if allocs != want {
				t.Errorf("fabric.New at N = %d, K = %d made %.0f objects, %.0f at N = 8, K = 2: does a table grow with K or N?", n, k, allocs, want)
			}
		}
	}
}

// staleRunMallocs counts the mallocs of building a stale-cpa (u = 4) fabric
// at N = 8, K = 8, r' = 2 and stepping it through slots slots of full-load
// rotating-permutation traffic (input i sends to output (i+t) mod N) until
// it drains. The arrivals are stamped before counting.
func staleRunMallocs(t *testing.T, slots int) float64 {
	t.Helper()
	const n = 8
	st := cell.NewStamperSized(n)
	arrivals := make([][]cell.Cell, slots)
	for s := range arrivals {
		for in := 0; in < n; in++ {
			f := cell.Flow{In: cell.Port(in), Out: cell.Port((in + s) % n)}
			arrivals[s] = append(arrivals[s], st.Stamp(f, cell.Time(s)))
		}
	}
	deps := make([]cell.Cell, 0, n)
	return fewestMallocs(func() {
		p, err := New(Config{N: n, K: 8, RPrime: 2}, func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPA(e, 4) })
		if err != nil {
			t.Fatal(err)
		}
		for slot := cell.Time(0); int(slot) < slots || !p.Drained(); slot++ {
			var cells []cell.Cell
			if int(slot) < slots {
				cells = arrivals[slot]
			}
			if deps, err = p.Step(slot, cells, deps[:0]); err != nil {
				t.Fatalf("slot %d: %v", slot, err)
			}
		}
	})
}

// TestStaleRunAllocsFlatInSlots holds a stale-cpa run's mallocs to its
// construction and warm-up: each input's blind window is cut from one slab
// at construction and holds at most u dispatches, and the global log
// compacts behind its readers, so a run four times longer makes no more
// objects. A window that is never trimmed, or a log that is never
// compacted, grows with the run and fails the guard.
func TestStaleRunAllocsFlatInSlots(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; guard only meaningful on plain builds")
	}
	short, long := staleRunMallocs(t, 1000), staleRunMallocs(t, 4000)
	if short != long {
		t.Errorf("a 1000-slot stale-cpa run made %.0f mallocs, a 4000-slot one %.0f: does a per-run table grow with the run?", short, long)
	} else {
		t.Logf("a 1000-slot and a 4000-slot stale-cpa run each made %.0f mallocs", short)
	}
}
