package harness

import (
	"runtime"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/fabric"
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
