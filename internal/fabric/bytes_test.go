package fabric

import (
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
// gate one 8-byte free-at slot, and an output's resequencer holds no
// parked table, no emittable heap, no pull scratch and no pull-policy
// interface of its own: 51.6 B per (port, plane) on linux/amd64 with Go
// 1.24. The policy interface value put it at 53.6 B, the emittable heap's
// slice header at 56.6 B, a per-output parked table and scratch at
// 64.6 B, and ring-buffer queue headers (40 B) with 16-byte gates at
// 106.6 B; the last two fail the guard.
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
