package harness

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ppsim/internal/admission"
	"ppsim/internal/cell"
	"ppsim/internal/fabric"
	"ppsim/internal/faults"
	"ppsim/internal/obs"
	"ppsim/internal/traffic"
)

// steppedView is the probe view of a slotStepper run: the harness view with
// the two shadow-dependent readings taken from the stepped shadow.Switch and
// a test-local table of its departures instead of the oracle and the
// recorder's window.
type steppedView struct {
	*slotView
	s        *slotStepper
	shadowAt map[uint64]cell.Time
}

func (v *steppedView) ShadowInFlight() int { return v.s.sh.Backlog() }

// runStepped drives s to the horizon and until both switches drain, sampling
// probes after every slot as Drive does, and returns the stop slot.
func runStepped(s *slotStepper, horizon cell.Time, probes []obs.Probe) cell.Time {
	view := &steppedView{
		slotView: &slotView{pps: s.pps, rec: s.rec},
		s:        s, shadowAt: map[uint64]cell.Time{},
	}
	for s.slot < horizon || !s.pps.Drained() || !s.sh.Drained() {
		s.step()
		for _, c := range s.shadowDeps {
			view.shadowAt[c.Seq] = c.Depart
		}
		// Front RQD: the largest delay among this slot's deliveries whose
		// shadow departure has happened by now.
		view.slot = s.slot - 1
		view.rqd, view.rqdOK = 0, false
		for _, c := range s.deps {
			if s.adm != nil && s.adm.Expired(c.Depart, c.Deadline) {
				continue
			}
			if sd, ok := view.shadowAt[c.Seq]; ok && (!view.rqdOK || c.Depart-sd > view.rqd) {
				view.rqd, view.rqdOK = c.Depart-sd, true
			}
		}
		for _, pb := range probes {
			pb.Sample(view)
		}
	}
	for _, pb := range probes {
		for _, sr := range pb.Series() {
			sr.ForceNext()
		}
		pb.Sample(view)
	}
	return s.slot
}

// TestDriveMatchesSteppedShadow holds the closed-form shadow and the
// windowed join to the machine they replaced: a run that steps a real
// shadow.Switch and reports its departures slot by slot must give the same
// Report, the same stop slot and point-for-point the same shadow_in_flight
// and front_rqd series as Drive — on both cores, with a plane failing and
// recovering under DropCount, and with token buckets and deadlines shedding
// cells at both ends.
func TestDriveMatchesSteppedShadow(t *testing.T) {
	const n = 16
	horizon := cell.Time(600)
	algs := map[string]bool{"rr": true, "cpa": true, "ftd": true}
	for _, alg := range matrixAlgs {
		if !algs[alg.name] {
			continue
		}
		for _, faulty := range []bool{false, true} {
			for _, spec := range []string{"", "rate:2/3,burst:4,deadline"} {
				name := alg.name
				cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
				if faulty {
					name += "/outage"
					cfg.Faults = faults.NewSchedule().Outage(1, 50, 300)
					cfg.FaultPolicy = faults.DropCount
				}
				var adm *admission.Spec
				if spec != "" {
					name += "/admission"
					adm = mustAdmission(t, spec)
				}
				// Bursts with silences between them, so the event core elides
				// spans and the in-flight series return to zero mid-run.
				source := func() traffic.Source {
					src, err := traffic.NewOnOff(n, 12, 20, horizon, 5)
					if err != nil {
						t.Fatal(err)
					}
					if adm == nil {
						return src
					}
					return traffic.WithDeadline(src, 12)
				}
				probes := func() []obs.Probe {
					return []obs.Probe{obs.NewInFlightProbe(1, 1<<12), obs.NewFrontRQDProbe(1, 1<<12)}
				}

				s := newSlotStepperAlg(t, cfg, alg.mk, source())
				if adm != nil {
					s.adm = admission.NewRuntime(adm, n)
				}
				wantProbes := probes()
				wantSlots := runStepped(s, horizon, wantProbes)
				want := s.rec.Report()
				if want.Cells == 0 || (faulty && want.Drops == 0) || (adm != nil && (want.Rejected == 0 || want.ExpiredReseq == 0)) {
					t.Fatalf("%s: reference run does not exercise the case: %+v", name, want)
				}

				for _, eng := range []Engine{EngineStepped, EngineEvent} {
					gotProbes := probes()
					res, err := Run(cfg, alg.mk, source(), Options{Engine: eng, Probes: gotProbes, Admission: adm})
					if err != nil {
						t.Fatalf("%s/%v: %v", name, eng, err)
					}
					if res.Engine != eng.String() {
						t.Fatalf("%s: asked for %v, ran %s (%s)", name, eng, res.Engine, res.EngineReason)
					}
					if !reflect.DeepEqual(res.Report, want) {
						t.Errorf("%s/%v: report diverges from the stepped shadow\n got: %+v\nwant: %+v", name, eng, res.Report, want)
					}
					if res.Slots != wantSlots {
						t.Errorf("%s/%v: Slots = %d, stepped shadow stops at %d", name, eng, res.Slots, wantSlots)
					}
					wantSeries := obs.CollectSeries(wantProbes)
					for i, sr := range res.Series {
						if sr.Name() == "pps_in_flight" {
							continue
						}
						if got, want := sr.Points(), wantSeries[i].Points(); !reflect.DeepEqual(got, want) {
							t.Errorf("%s/%v: series %s diverges from the stepped shadow (%d vs %d points)",
								name, eng, sr.Name(), len(got), len(want))
						}
					}
				}
			}
		}
	}
}

// TestOutOfRangeDestinationIsAnError: a source naming an output the switch
// does not have must come back as the fabric's error on both cores — the
// oracle indexes its per-output table unchecked, so it may only ever see
// cells the fabric step accepted.
func TestOutOfRangeDestinationIsAnError(t *testing.T) {
	const n = 4
	for _, eng := range []Engine{EngineStepped, EngineEvent} {
		for _, out := range []cell.Port{n, n + 60, -1} {
			tr := traffic.NewTrace()
			for _, a := range []struct {
				t       cell.Time
				in, out cell.Port
			}{{0, 0, 1}, {2, 1, 0}, {2, 2, out}, {3, 0, 2}} {
				if err := tr.Add(a.t, a.in, a.out); err != nil {
					t.Fatal(err)
				}
			}
			cfg := fabric.Config{N: n, K: 4, RPrime: 2, CheckInvariants: true}
			_, err := Run(cfg, rrFactory, tr, Options{Engine: eng})
			if err == nil || !strings.Contains(err.Error(), "outside 4x4 switch") {
				t.Errorf("%v, destination %d: err = %v, want the fabric's outside-the-switch error", eng, out, err)
			}
		}
	}
}

// TestShadowOutlastsDroppedPPS: 32 cells for one output, half of them
// dispatched into a dead plane and dropped. The PPS is empty long before the
// reference switch — which never drops — has served its queue, so the run
// must keep going until the shadow's last departure, identically on every
// engine.
func TestShadowOutlastsDroppedPPS(t *testing.T) {
	const n, burst = 4, 8
	cfg := fabric.Config{N: n, K: 2, RPrime: 1, CheckInvariants: true}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"event", Options{Engine: EngineEvent}},
		{"stepped", Options{Engine: EngineStepped}},
		{"workers2", Options{Workers: 2}},
	} {
		tr := traffic.NewTrace()
		for slot := cell.Time(0); slot < burst; slot++ {
			for in := cell.Port(0); in < n; in++ {
				if err := tr.Add(slot, in, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		lastPPS := cell.Time(-1)
		opts := tc.opts
		opts.FailPlanes = []cell.Plane{0}
		opts.FaultPolicy = faults.DropCount
		opts.OnPPSDepart = func(c cell.Cell) { lastPPS = c.Depart }
		res, err := Run(cfg, rrFactory, tr, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Drops == 0 || res.Report.Cells+res.Drops != n*burst {
			t.Fatalf("%s: %d delivered + %d dropped, want some drops and %d cells in all", tc.name, res.Report.Cells, res.Drops, n*burst)
		}
		// One output serves one cell per slot from slot 0: the last of the
		// 32 leaves the reference at slot 31.
		if res.Slots != n*burst {
			t.Errorf("%s: Slots = %d, want %d (the shadow's last departure + 1)", tc.name, res.Slots, n*burst)
		}
		if lastPPS+1 >= res.Slots {
			t.Errorf("%s: PPS still delivering at slot %d of %d; the case needs the shadow to outlast it", tc.name, lastPPS, res.Slots)
		}
	}
}

// TestSoakFlatMemory is the bounded-memory guard: an N=64 run at load 0.9
// (every port busy, queues still stable — at 1.0 they grow without bound and
// so, rightly, does the heap) keeps a steady population in flight, so its
// live heap at the end of the horizon must be what it was an eighth of the
// way in. Per-cell tables grew it by 32 B for every cell offered in between.
func TestSoakFlatMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	const n = 64
	horizon := cell.Time(24000)
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var early, late uint64
	cfg := fabric.Config{N: n, K: 8, RPrime: 2, CheckInvariants: false}
	res, err := Run(cfg, rrFactory, traffic.NewBernoulli(n, 0.9, horizon, 3), Options{
		OnPPSDepart: func(c cell.Cell) {
			switch {
			case early == 0 && c.Depart >= horizon/8:
				early = liveHeap()
			case late == 0 && c.Depart >= horizon-1:
				late = liveHeap()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if early == 0 || late == 0 {
		t.Fatalf("heap not sampled at both marks (early %d, late %d)", early, late)
	}
	t.Logf("%d cells: live heap %d B at 1/8 of the horizon, %d B at the end", res.Report.Cells, early, late)
	if float64(late) > 1.10*float64(early) {
		t.Errorf("live heap grew from %d to %d B (%.1f%%) over %d cells, want <= 10%%",
			early, late, 100*(float64(late)/float64(early)-1), res.Report.Cells)
	}
}
