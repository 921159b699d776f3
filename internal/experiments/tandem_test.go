package experiments

import (
	"strings"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/traffic"
)

func cpaStage(n, k int, rp int64, remap func(cell.Port) cell.Port) tandemStage {
	return tandemStage{
		Config:  fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true},
		Factory: func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.MinAvail) },
		Remap:   remap,
	}
}

func rrStage(n, k int, rp int64, remap func(cell.Port) cell.Port) tandemStage {
	return tandemStage{
		Config:  fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true},
		Factory: func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerInput) },
		Remap:   remap,
	}
}

func TestTandemValidation(t *testing.T) {
	if _, err := runTandem(nil, traffic.NewTrace(), harness.Options{}); err == nil {
		t.Error("empty tandem must be rejected")
	}
	stages := []tandemStage{cpaStage(4, 4, 2, nil), cpaStage(8, 4, 2, nil)}
	if _, err := runTandem(stages, traffic.NewTrace(), harness.Options{}); err == nil ||
		!strings.Contains(err.Error(), "ports") {
		t.Errorf("port mismatch must be rejected: %v", err)
	}
}

func TestSingleStageEqualsHarness(t *testing.T) {
	const n = 4
	tr := traffic.NewTrace()
	for s := cell.Time(0); s < 20; s++ {
		tr.MustAdd(s, cell.Port(s%4), cell.Port((s+1)%4))
	}
	res, err := runTandem([]tandemStage{cpaStage(n, 4, 2, nil)}, tr, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != 20 {
		t.Errorf("Cells = %d", res.Cells)
	}
	// CPA at S=2 on light traffic: cells cross in their arrival slot.
	if res.EndToEnd.Max != 0 {
		t.Errorf("single CPA stage end-to-end max = %d, want 0", res.EndToEnd.Max)
	}
	if len(res.Stages) != 1 {
		t.Errorf("Stages = %d", len(res.Stages))
	}
}

func TestTwoCleanStagesAddNoDelayOnLightTraffic(t *testing.T) {
	const n = 4
	tr := traffic.NewTrace()
	for s := cell.Time(0); s < 30; s++ {
		tr.MustAdd(s, cell.Port(s%n), cell.Port((s+1)%n))
	}
	rot := func(out cell.Port) cell.Port { return (out + 1) % n }
	res, err := runTandem([]tandemStage{cpaStage(n, 4, 2, rot), cpaStage(n, 4, 2, nil)}, tr, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != 30 {
		t.Fatalf("Cells = %d", res.Cells)
	}
	if res.EndToEnd.Max != 0 {
		t.Errorf("two clean CPA stages should add no delay: max = %d", res.EndToEnd.Max)
	}
}

func TestCongestedFirstStageShowsInEndToEnd(t *testing.T) {
	// tandemStage 1 concentrates (fresh rr pointers all hit plane 0); stage 2 is
	// clean. End-to-end delay must carry stage 1's concentration.
	const n, rp = 6, 3
	tr := traffic.NewTrace()
	for i := 0; i < n; i++ {
		tr.MustAdd(cell.Time(i), cell.Port(i), 0)
	}
	res, err := runTandem([]tandemStage{
		rrStage(n, 3, rp, nil),
		cpaStage(n, 6, rp, nil),
	}, tr, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// tandemStage 1 delays the last cell by (n-1)(r'-1) = 10 beyond its arrival.
	want := cell.Time((n - 1) * (rp - 1))
	if res.EndToEnd.Max < want {
		t.Errorf("end-to-end max = %d, want >= %d", res.EndToEnd.Max, want)
	}
	if res.Stages[0].Report.MaxRQD == 0 {
		t.Error("stage 1 should have concentrated")
	}
	if res.Stages[1].Report.MaxRQD != 0 {
		t.Errorf("stage 2 (CPA, spaced arrivals) should be clean, RQD = %d", res.Stages[1].Report.MaxRQD)
	}
}

func TestEndToEndDelayAtLeastSumOfArrivalSpans(t *testing.T) {
	// Sanity: end-to-end mean >= each stage's own mean contribution is
	// hard to assert exactly; instead check monotonicity: adding a stage
	// never reduces the end-to-end maximum.
	const n = 4
	mk := func() *traffic.Trace {
		tr := traffic.NewTrace()
		for s := cell.Time(0); s < 40; s++ {
			tr.MustAdd(s, cell.Port(s%n), cell.Port((s+3)%n))
		}
		return tr
	}
	one, err := runTandem([]tandemStage{rrStage(n, 4, 2, nil)}, mk(), harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	two, err := runTandem([]tandemStage{rrStage(n, 4, 2, nil), rrStage(n, 4, 2, nil)}, mk(), harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if two.EndToEnd.Max < one.EndToEnd.Max {
		t.Errorf("adding a stage reduced the max delay: %d -> %d", one.EndToEnd.Max, two.EndToEnd.Max)
	}
}
