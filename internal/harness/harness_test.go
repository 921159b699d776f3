package harness

import (
	"strings"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/traffic"
)

func rrFactory(e demux.Env) (demux.Algorithm, error) {
	return demux.NewRoundRobin(e, demux.PerInput)
}

func TestRunMatchesCells(t *testing.T) {
	cfg := fabric.Config{N: 4, K: 4, RPrime: 2, CheckInvariants: true}
	tr := traffic.NewTrace()
	for s := cell.Time(0); s < 10; s++ {
		tr.MustAdd(s, cell.Port(s%4), cell.Port((s+1)%4))
	}
	res, err := Run(cfg, rrFactory, tr, Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Cells != 10 {
		t.Errorf("Cells = %d", res.Report.Cells)
	}
	if res.AlgorithmName != "rr" {
		t.Errorf("AlgorithmName = %q", res.AlgorithmName)
	}
	if res.Slots == 0 {
		t.Error("Slots not recorded")
	}
	if len(res.Utilization) != 4 {
		t.Errorf("Utilization has %d entries", len(res.Utilization))
	}
}

func TestRunPropagatesConfigErrors(t *testing.T) {
	if _, err := Run(fabric.Config{N: 0, K: 1, RPrime: 1}, rrFactory, traffic.NewTrace(), Options{}); err == nil {
		t.Error("invalid config must error")
	}
}

func TestUnboundedSourceNeedsHorizon(t *testing.T) {
	cfg := fabric.Config{N: 2, K: 2, RPrime: 1}
	src := &traffic.Flood{N: 2, Out: 0, Until: cell.None}
	if _, err := Run(cfg, rrFactory, src, Options{}); err == nil ||
		!strings.Contains(err.Error(), "Horizon") {
		t.Errorf("unbounded source without horizon must error: %v", err)
	}
	// With a horizon it works.
	if _, err := Run(cfg, rrFactory, src, Options{Horizon: 10}); err != nil {
		t.Errorf("horizon-bounded run failed: %v", err)
	}
}

func TestHorizonTruncatesFiniteSource(t *testing.T) {
	cfg := fabric.Config{N: 2, K: 2, RPrime: 1}
	tr := traffic.NewTrace()
	tr.MustAdd(0, 0, 0)
	tr.MustAdd(50, 0, 0)
	res, err := Run(cfg, rrFactory, tr, Options{Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Cells != 1 {
		t.Errorf("horizon should cut the second cell: %d cells", res.Report.Cells)
	}
}

func TestMaxSlotsAborts(t *testing.T) {
	// A flood drains slowly; an absurdly small MaxSlots must abort with a
	// diagnostic instead of looping.
	cfg := fabric.Config{N: 8, K: 2, RPrime: 2}
	src := &traffic.Flood{N: 8, Out: 0, Until: 50}
	if _, err := Run(cfg, rrFactory, src, Options{MaxSlots: 20}); err == nil ||
		!strings.Contains(err.Error(), "not drained") {
		t.Errorf("expected a not-drained error: %v", err)
	}
}

// TestMaxSlotsBeforeHorizonErrors is the silent-truncation regression: the
// cap is reached while both switches happen to be empty (the first cell has
// long departed, the second is not due until slot 5000), so the drain check
// alone passes. The run must fail naming MaxSlots and the horizon instead
// of returning a shortened Result — under both cores.
func TestMaxSlotsBeforeHorizonErrors(t *testing.T) {
	cfg := fabric.Config{N: 4, K: 4, RPrime: 2}
	for _, eng := range []Engine{EngineEvent, EngineStepped} {
		tr := traffic.NewTrace()
		tr.MustAdd(0, 0, 0)
		tr.MustAdd(5000, 0, 0)
		res, err := Run(cfg, rrFactory, tr, Options{MaxSlots: 1000, Engine: eng})
		if err == nil {
			t.Errorf("%v: truncated run returned no error (Slots=%d, Offered=%d)", eng, res.Slots, res.Report.Offered)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "MaxSlots 1000") || !strings.Contains(msg, "horizon 5001") {
			t.Errorf("%v: error should name MaxSlots and the horizon: %v", eng, err)
		}
	}
}

func TestOnPPSDepartSeesStamps(t *testing.T) {
	cfg := fabric.Config{N: 2, K: 2, RPrime: 1, CheckInvariants: true}
	tr := traffic.NewTrace()
	tr.MustAdd(3, 1, 0)
	var seen []cell.Cell
	_, err := Run(cfg, rrFactory, tr, Options{OnPPSDepart: func(c cell.Cell) { seen = append(seen, c) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Fatalf("OnPPSDepart called %d times", len(seen))
	}
	c := seen[0]
	if c.Arrive != 3 || c.Dispatch == cell.None || c.Via == cell.NoPlane || c.Depart == cell.None {
		t.Errorf("departure stamps incomplete: %v", c)
	}
}

func TestValidateMeasuresBurstiness(t *testing.T) {
	cfg := fabric.Config{N: 4, K: 4, RPrime: 1, CheckInvariants: true}
	tr := traffic.NewTrace()
	for i := 0; i < 3; i++ {
		tr.MustAdd(0, cell.Port(i), 0) // burst of 3 to one output: B = 2
	}
	res, err := Run(cfg, rrFactory, tr, Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Burstiness != 2 {
		t.Errorf("Burstiness = %d, want 2", res.Burstiness)
	}
}

func TestDriveRejectsAlgorithmErrors(t *testing.T) {
	// K < r' round-robin construction fails inside fabric.New via Run.
	cfg := fabric.Config{N: 2, K: 1, RPrime: 2}
	if _, err := Run(cfg, rrFactory, traffic.NewTrace(), Options{}); err == nil {
		t.Error("algorithm construction error must propagate")
	}
}

func TestFailPlanesOption(t *testing.T) {
	cfg := fabric.Config{N: 4, K: 2, RPrime: 1, CheckInvariants: true}
	tr := traffic.NewTrace()
	tr.MustAdd(0, 0, 1)
	// Fresh rr dispatches to plane 0 first: failing it errors the run.
	if _, err := Run(cfg, rrFactory, tr, Options{FailPlanes: []cell.Plane{0}}); err == nil {
		t.Error("dispatch into a failed plane must error the run")
	}
	// Failing a plane the traffic never uses is harmless (rr starts at 0).
	tr2 := traffic.NewTrace()
	tr2.MustAdd(0, 0, 1)
	if _, err := Run(cfg, rrFactory, tr2, Options{FailPlanes: []cell.Plane{1}}); err != nil {
		t.Errorf("unused failed plane should not affect the run: %v", err)
	}
	// Nonexistent plane is a configuration error.
	if _, err := Run(cfg, rrFactory, tr2, Options{FailPlanes: []cell.Plane{9}}); err == nil {
		t.Error("failing a nonexistent plane must error")
	}
}

func TestDriveExistingPPSExposesInternals(t *testing.T) {
	cfg := fabric.Config{N: 4, K: 2, RPrime: 2, CheckInvariants: true}
	pps, err := fabric.New(cfg, rrFactory)
	if err != nil {
		t.Fatal(err)
	}
	tr := traffic.NewTrace()
	for i := 0; i < 4; i++ {
		tr.MustAdd(cell.Time(i), cell.Port(i), 0)
	}
	res, err := Drive(pps, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakPlaneQueue == 0 {
		t.Error("peak plane queue should be visible after Drive")
	}
	if !pps.Drained() {
		t.Error("PPS should be drained after Drive")
	}
}
