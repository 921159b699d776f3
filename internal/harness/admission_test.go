package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ppsim/internal/admission"
	"ppsim/internal/cell"
	"ppsim/internal/fabric"
	"ppsim/internal/obs"
	"ppsim/internal/traffic"
)

func mustAdmission(t *testing.T, spec string) *admission.Spec {
	t.Helper()
	s, err := admission.ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	return s
}

// TestAlwaysAdmitInert is the admission analogue of
// TestAbortEmptyScheduleInert: the always-admit default — whether left nil
// or configured as the explicit empty spec — must leave every algorithm's
// Result bit-identical to a run with no admission configuration at all.
func TestAlwaysAdmitInert(t *testing.T) {
	const n = 8
	horizon := cell.Time(128)
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
	for _, alg := range matrixAlgs {
		run := func(opts Options) Result {
			src := traffic.NewBernoulli(n, 0.6, horizon, 11)
			res, err := Run(cfg, alg.mk, src, opts)
			if err != nil {
				t.Fatalf("%s: %v", alg.name, err)
			}
			return res
		}
		bare := run(Options{Validate: true, Utilization: true})
		configured := run(Options{
			Validate: true, Utilization: true,
			Admission: mustAdmission(t, "always"),
		})
		if !reflect.DeepEqual(bare, configured) {
			t.Errorf("%s: always-admit spec perturbs the run\nbare:       %+v\nconfigured: %+v",
				alg.name, bare, configured)
		}
		if bare.Report.Offered != bare.Report.Admitted || bare.Report.Offered == 0 {
			t.Errorf("%s: bare run offered=%d admitted=%d, want equal and non-zero",
				alg.name, bare.Report.Offered, bare.Report.Admitted)
		}
		if bare.OnTimeFraction != 1.0 {
			t.Errorf("%s: clean run on-time fraction = %v, want 1.0", alg.name, bare.OnTimeFraction)
		}
	}
}

// admissionCases are the policy scenarios the engine-equivalence matrix
// runs: a binding per-input bucket, an aggregate bucket, deadline-drop on
// deadline-stamped traffic, and all three at once.
var admissionCases = []struct {
	name     string
	spec     string
	deadline cell.Time // 0: plain source, else WithDeadline(src, deadline)
}{
	{"token-bucket", "rate:1/3,burst:2", 0},
	{"aggregate", "agg-rate:2,agg-burst:4", 0},
	{"deadline", "deadline", 24},
	{"combined", "rate:1/2,burst:4,agg-rate:3,agg-burst:8,deadline", 24},
}

// TestAdmissionMatchesSerialMatrix extends the determinism contract to
// admission-active runs: with token buckets refusing cells and deadlines
// expiring them, every algorithm and worker count must still produce a
// stage-parallel Result bit-identical to the serial engine's — drop,
// rejection and expiry accounting included.
func TestAdmissionMatchesSerialMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("admission equivalence matrix skipped in -short mode")
	}
	const n = 16
	horizon := cell.Time(192)
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
	for _, ac := range admissionCases {
		for _, alg := range matrixAlgs {
			run := func(workers int) Result {
				var src traffic.Source = traffic.NewBernoulli(n, 0.8, horizon, 11)
				if ac.deadline > 0 {
					src = traffic.WithDeadline(src, ac.deadline)
				}
				res, err := Run(cfg, alg.mk, src, Options{
					Validate: true, Utilization: true, Workers: workers,
					Admission: mustAdmission(t, ac.spec),
				})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", ac.name, alg.name, workers, err)
				}
				return res
			}
			serial := run(0)
			if serial.Report.Cells == 0 {
				t.Fatalf("%s/%s: empty serial run", ac.name, alg.name)
			}
			if rep := serial.Report; rep.Offered != rep.Admitted+rep.Rejected+rep.ExpiredAdmit {
				t.Fatalf("%s/%s: admission leak: offered=%d admitted=%d rejected=%d expiredAdmit=%d",
					ac.name, alg.name, rep.Offered, rep.Admitted, rep.Rejected, rep.ExpiredAdmit)
			}
			if strings.Contains(ac.spec, "rate") && serial.Report.Rejected == 0 {
				t.Fatalf("%s/%s: overloaded token-bucket run rejected nothing", ac.name, alg.name)
			}
			for _, w := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", ac.name, alg.name, w), func(t *testing.T) {
					if par := run(w); !reflect.DeepEqual(stripEngine(serial), stripEngine(par)) {
						t.Errorf("admission-active parallel result diverges from serial\nserial:   %+v\nparallel: %+v", serial, par)
					}
				})
			}
		}
	}
}

// TestAdmissionMatchesSteppedEngines runs the admission cases through the
// event core against the stepped oracle on sparse bursty traffic (so slots
// actually get elided): the lazy closed-form token refill must make exactly
// the decisions per-slot stepping would.
func TestAdmissionMatchesSteppedEngines(t *testing.T) {
	const n = 16
	horizon := cell.Time(512)
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
	for _, ac := range admissionCases {
		run := func(eng Engine) (Result, cell.Time) {
			inner, err := traffic.NewOnOff(n, 2, 24, horizon, 5)
			if err != nil {
				t.Fatal(err)
			}
			var src traffic.Source = inner
			if ac.deadline > 0 {
				src = traffic.WithDeadline(src, ac.deadline)
			}
			var elided cell.Time
			res, err := Run(cfg, rrFactory, src, Options{
				Validate: true, Utilization: true,
				Engine:        eng,
				Admission:     mustAdmission(t, ac.spec),
				OnFastForward: func(from, to cell.Time) { elided += to - from },
			})
			if err != nil {
				t.Fatalf("%s engine=%v: %v", ac.name, eng, err)
			}
			return res, elided
		}
		stepped, _ := run(EngineStepped)
		if stepped.Report.Cells == 0 {
			t.Fatalf("%s: empty stepped run", ac.name)
		}
		t.Run(ac.name+"/event", func(t *testing.T) {
			res, elided := run(EngineEvent)
			if elided == 0 {
				t.Errorf("sparse run elided no slots; the lazy-refill path was not exercised")
			}
			if !reflect.DeepEqual(stripEngine(stepped), stripEngine(res)) {
				t.Errorf("event result diverges from stepped\nstepped: %+v\ngot:     %+v", stepped, res)
			}
		})
	}
}

// TestDeadlineDropConservation drives an overloaded deadline run and checks
// the full balance the ISSUE demands: admitted == delivered + dropped +
// expired-at-resequencing, on top of the admission-side identity, with the
// expiries visible in the probe series and late deliveries excluded from
// delay statistics.
func TestDeadlineDropConservation(t *testing.T) {
	const n = 8
	horizon := cell.Time(256)
	cfg := fabric.Config{N: n, K: 2, RPrime: 1, BufferCap: -1, CheckInvariants: true}
	// Flood one output so resequencing backlogs grow and deliveries miss the
	// tight deadline; K*R' = 2 < N keeps the switch genuinely overloaded.
	hot, err := traffic.NewHotspot(n, 0.9, 0.8, 0, horizon, 3)
	if err != nil {
		t.Fatal(err)
	}
	probes := obs.StandardProbes(n, cfg.K, 1, 0)
	res, err := Run(cfg, rrFactory, traffic.WithDeadline(hot, 6), Options{
		Validate: true, Admission: mustAdmission(t, "deadline"), Probes: probes,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.ExpiredReseq == 0 {
		t.Fatal("overloaded deadline run expired nothing at egress; deadline too loose to test")
	}
	if rep.Offered != rep.Admitted+rep.Rejected+rep.ExpiredAdmit {
		t.Errorf("admission identity broken: %+v", rep)
	}
	if rep.Admitted != rep.Cells+rep.Drops+rep.ExpiredReseq {
		t.Errorf("delivery identity broken: admitted=%d cells=%d drops=%d expiredReseq=%d",
			rep.Admitted, rep.Cells, rep.Drops, rep.ExpiredReseq)
	}
	if rep.OnTime != rep.Cells {
		// Every non-expired delivery met its deadline by construction of the
		// egress reclassification.
		t.Errorf("onTime=%d != delivered=%d under deadline-drop", rep.OnTime, rep.Cells)
	}
	if rep.OnTimeFraction >= 1.0 || rep.OnTimeFraction <= 0 {
		t.Errorf("on-time fraction = %v, want in (0, 1)", rep.OnTimeFraction)
	}
	// The expired_total series must end at the total expiry count.
	var expSeries *obs.Series
	for _, s := range res.Series {
		if s.Name() == "expired_total" {
			expSeries = s
		}
	}
	if expSeries == nil {
		t.Fatal("expired_total series missing from standard probes")
	}
	pts := expSeries.Points()
	if got := pts[len(pts)-1].Value; got != float64(rep.ExpiredAdmit+rep.ExpiredReseq) {
		t.Errorf("expired_total final sample = %v, want %d", got, rep.ExpiredAdmit+rep.ExpiredReseq)
	}
	// Late deliveries are excluded from delay statistics: the histogram cell
	// count must equal matched cells only.
	if got := rep.Percentiles.RQD.N; got != int64(rep.Cells) {
		t.Errorf("RQD histogram holds %d cells, want %d (expired excluded)", got, rep.Cells)
	}
}

// TestAdmissionValidateRejectsBadSpec checks Drive surfaces spec errors
// before running.
func TestAdmissionValidateRejectsBadSpec(t *testing.T) {
	cfg := fabric.Config{N: 4, K: 2, RPrime: 1}
	src := traffic.NewBernoulli(4, 0.5, 32, 1)
	_, err := Run(cfg, rrFactory, src, Options{Admission: &admission.Spec{RateNum: 1}})
	if err == nil || !strings.Contains(err.Error(), "admission") {
		t.Fatalf("bad spec not rejected: %v", err)
	}
}

// TestAdmissionTelemetryGauges checks the admission counters reach the
// telemetry snapshot.
func TestAdmissionTelemetryGauges(t *testing.T) {
	tel := obs.NewTelemetry()
	cfg := fabric.Config{N: 8, K: 4, RPrime: 2}
	src := traffic.NewBernoulli(8, 0.9, 128, 9)
	res, err := Run(cfg, rrFactory, src, Options{
		Telemetry: tel,
		Admission: mustAdmission(t, "rate:1/4,burst:1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	if snap.Admitted != int64(res.Report.Admitted) || snap.Rejected != int64(res.Report.Rejected) {
		t.Errorf("telemetry gauges admitted=%d rejected=%d, want %d/%d",
			snap.Admitted, snap.Rejected, res.Report.Admitted, res.Report.Rejected)
	}
	if snap.Rejected == 0 {
		t.Error("tight bucket rejected nothing")
	}
}
