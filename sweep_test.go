package ppsim_test

import (
	"reflect"
	"strings"
	"testing"

	"ppsim"
)

func sweepPoints(t *testing.T, ns []int) []ppsim.SweepPoint {
	t.Helper()
	var pts []ppsim.SweepPoint
	for _, n := range ns {
		n := n
		cfg := ppsim.Config{N: n, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "rr"}}
		pts = append(pts, ppsim.SweepPoint{
			Label:  strings.Repeat("N", 1) + "=" + itoa(n),
			Config: cfg,
			NewSource: func() ppsim.Source {
				tr, err := ppsim.SteeringTrace(cfg, ppsim.AllInputs(n), 0, 1, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				return tr
			},
		})
	}
	return pts
}

func itoa(n int) string {
	digits := "0123456789"
	if n == 0 {
		return "0"
	}
	var out []byte
	for n > 0 {
		out = append([]byte{digits[n%10]}, out...)
		n /= 10
	}
	return string(out)
}

func TestRunSweepMatchesSequential(t *testing.T) {
	ns := []int{4, 8, 16, 32}
	parallel := ppsim.RunSweep(sweepPoints(t, ns), 4)
	sequential := ppsim.RunSweep(sweepPoints(t, ns), 1)
	if len(parallel) != len(ns) {
		t.Fatalf("results = %d", len(parallel))
	}
	for i := range parallel {
		if parallel[i].Err != nil || sequential[i].Err != nil {
			t.Fatalf("errors: %v / %v", parallel[i].Err, sequential[i].Err)
		}
		p, s := parallel[i].Result.Report, sequential[i].Result.Report
		if p.MaxRQD != s.MaxRQD || p.Cells != s.Cells {
			t.Errorf("point %d: parallel %v != sequential %v", i, p, s)
		}
		// And the measured value follows Corollary 7's shape.
		if want := ppsim.Time(ns[i] - 1); p.MaxRQD != want {
			t.Errorf("N=%d: MaxRQD = %d, want %d", ns[i], p.MaxRQD, want)
		}
	}
}

func TestRunSweepDefaultsWorkers(t *testing.T) {
	res := ppsim.RunSweep(sweepPoints(t, []int{4, 8}), 0)
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

func TestRunSweepEmpty(t *testing.T) {
	if got := ppsim.RunSweep(nil, 3); len(got) != 0 {
		t.Errorf("empty sweep returned %d results", len(got))
	}
}

func TestRunSweepIsolatesFailures(t *testing.T) {
	bad := ppsim.SweepPoint{
		Label:  "bad",
		Config: ppsim.Config{N: 0, K: 1, RPrime: 1, Algorithm: ppsim.Algorithm{Name: "rr"}},
		NewSource: func() ppsim.Source {
			return ppsim.NewBernoulli(1, 0.5, 10, 1)
		},
	}
	okCfg := ppsim.Config{N: 4, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "rr"}}
	good := ppsim.SweepPoint{
		Label:     "good",
		Config:    okCfg,
		NewSource: func() ppsim.Source { return ppsim.NewBernoulli(4, 0.5, 50, 1) },
	}
	missing := ppsim.SweepPoint{Label: "missing", Config: okCfg}
	panicky := ppsim.SweepPoint{
		Label:     "panicky",
		Config:    okCfg,
		NewSource: func() ppsim.Source { panic("boom") },
	}
	res := ppsim.RunSweep([]ppsim.SweepPoint{bad, good, missing, panicky}, 2)
	if res[0].Err == nil {
		t.Error("bad config should fail")
	}
	if res[1].Err != nil {
		t.Errorf("good point failed: %v", res[1].Err)
	}
	if res[2].Err == nil || !strings.Contains(res[2].Err.Error(), "no source factory") {
		t.Errorf("missing factory: %v", res[2].Err)
	}
	if res[3].Err == nil || !strings.Contains(res[3].Err.Error(), "panicked") {
		t.Errorf("panic not captured: %v", res[3].Err)
	}
}

// TestRunSweepMoreWorkersThanPoints drives the buffered feed path with the
// two failure modes combined: a requested worker count above the point count
// (clamped, so the extra workers never spin) and a panicking factory in the
// mix. The sweep must complete — not deadlock on the index channel — and
// report per-point outcomes in order.
func TestRunSweepMoreWorkersThanPoints(t *testing.T) {
	okCfg := ppsim.Config{N: 4, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "rr"}}
	pts := []ppsim.SweepPoint{
		{
			Label:     "panicky",
			Config:    okCfg,
			NewSource: func() ppsim.Source { panic("boom") },
		},
		{
			Label:     "good",
			Config:    okCfg,
			NewSource: func() ppsim.Source { return ppsim.NewBernoulli(4, 0.5, 50, 1) },
		},
	}
	res := ppsim.RunSweep(pts, 16)
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2", len(res))
	}
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "panicked") {
		t.Errorf("panic not captured: %v", res[0].Err)
	}
	if res[1].Err != nil {
		t.Errorf("good point failed: %v", res[1].Err)
	}
	if res[1].Result.Report.Cells == 0 {
		t.Error("good point ran empty")
	}
}

// TestRunSweepSharedFaultSchedule: concurrent runs may share one fault
// schedule. The schedule is built out of canonical order, so the runs race
// to sort it on first use; every point must still see the same events, loss
// streams and seed, and match a run alone over its own copy of the schedule.
func TestRunSweepSharedFaultSchedule(t *testing.T) {
	build := func() *ppsim.FaultSchedule {
		return ppsim.NewFaultSchedule().
			Outage(2, 90, 150).FailAt(1, 40).RecoverAt(1, 20).FailAt(1, 0).
			WithLoss(3, 0.05).WithSeed(9)
	}
	cfg := ppsim.Config{N: 8, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "rr"}}
	opts := ppsim.Options{FaultPolicy: ppsim.FaultDropCount, Faults: build()}
	pts := make([]ppsim.SweepPoint, 8)
	for i := range pts {
		pts[i] = ppsim.SweepPoint{
			Label:     "shared",
			Config:    cfg,
			NewSource: func() ppsim.Source { return ppsim.NewBernoulli(8, 0.6, 200, 3) },
			Options:   opts,
		}
	}
	alone := opts
	alone.Faults = build()
	want, err := ppsim.Run(cfg, ppsim.NewBernoulli(8, 0.6, 200, 3), alone)
	if err != nil {
		t.Fatal(err)
	}
	if want.Drops == 0 {
		t.Fatal("degraded run recorded no drops")
	}
	for i, r := range ppsim.RunSweep(pts, len(pts)) {
		if r.Err != nil {
			t.Fatalf("point %d: %v", i, r.Err)
		}
		if !reflect.DeepEqual(r.Result, want) {
			t.Errorf("point %d diverges from the run alone\ngot:  %+v\nwant: %+v", i, r.Result, want)
		}
	}
}
