package harness

import (
	"runtime"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/fabric"
	"ppsim/internal/faults"
	"ppsim/internal/traffic"
)

// runBytesBudget bounds what one harness.Run of the 2048-flow run below may
// allocate, fabric construction, stamper, recorder and shadow oracle
// included. The fabric-only TestPerFlowStateSizedToFlows leaves out the
// layers Drive adds; this guard covers them: a stamper or recorder flow
// index sized N² (4 MiB each at N = 1024) fails it.
const runBytesBudget = 4 << 20

// TestRunPerFlowStateSizedToFlows is the harness-level bytes guard at the
// headline geometry: N = 1024, K = 8, 2048 flows spread over every output
// (two per output, one per input per slot), four cells each.
func TestRunPerFlowStateSizedToFlows(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; guard only meaningful on plain builds")
	}
	const n, cellsPerFlow = 1024, 4
	tr := traffic.NewTrace()
	for s := 0; s < 2*cellsPerFlow; s++ {
		block := s % 2
		for in := 0; in < n; in++ {
			tr.MustAdd(cell.Time(s), cell.Port(in), cell.Port((in+block*n/2)%n))
		}
	}
	cfg := fabric.Config{N: n, K: 8, RPrime: 2}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(cfg, rrFactory, tr, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Flows != 2*n || res.Report.Cells != 2*n*cellsPerFlow {
		t.Fatalf("run carried %d flows and %d cells, want %d and %d", res.Report.Flows, res.Report.Cells, 2*n, 2*n*cellsPerFlow)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > runBytesBudget {
		t.Errorf("Run over %d flows allocated %.2f MiB, budget %.2f MiB: is a per-flow table sized N² again?",
			2*n, float64(got)/(1<<20), float64(runBytesBudget)/(1<<20))
	} else {
		t.Logf("Run over %d flows allocated %.2f MiB", 2*n, float64(got)/(1<<20))
	}
}

// shapedFaultRunAllocs bounds the mallocs of one sweep-small point: N = 32,
// K = 8, r' = 2 round-robin over Shape(32, 4, Bernoulli 0.75) for 1 000
// slots, Validate on, plane 1 failed over [250, 750) under DropCount. It
// read 367 when the regulator grew a FIFO per input, the referee and every
// resequencer grew a drop table per output, and the busy outputs were a
// growable sorted list; it read 167 with one regulator node slab, one
// drop table of each kind per store shard and the busy bitmap, and reads
// 104 with the planes and gate banks held by value and the store, the
// regulator's slab and pull buffer, the driver's buffers and the recorder's
// tables sized once at the start (DESIGN.md §13, "Per-run object budget").
const shapedFaultRunAllocs = 114

// TestShapedFaultRunAllocsPerPort is the mallocs guard of that point: a
// per-run table that grows one backing array per port or per output, one
// doubling at a time, fails it with the count.
func TestShapedFaultRunAllocsPerPort(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; guard only meaningful on plain builds")
	}
	const n = 32
	var res Result
	var err error
	allocs := testing.AllocsPerRun(2, func() {
		src := traffic.NewRegulator(n, 4, traffic.NewBernoulli(n, 0.75, 1000, 1))
		res, err = Run(fabric.Config{N: n, K: 8, RPrime: 2}, rrFactory, src, Options{
			Horizon: 20000, MaxSlots: 20000 + 1<<20, Validate: true,
			Faults: faults.NewSchedule().Outage(1, 250, 750), FaultPolicy: faults.DropCount,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Drops == 0 || res.Report.Cells == 0 {
		t.Fatalf("run delivered %d cells and dropped %d: the outage hit nothing", res.Report.Cells, res.Report.Drops)
	}
	if allocs > shapedFaultRunAllocs {
		t.Errorf("one shaped DropCount run at N = %d made %.0f mallocs, budget %d: does a per-run table grow per port again?",
			n, allocs, shapedFaultRunAllocs)
	} else {
		t.Logf("one shaped DropCount run at N = %d made %.0f mallocs (%d cells, %d dropped)", n, allocs, res.Report.Cells, res.Report.Drops)
	}
}
