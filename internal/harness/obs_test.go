package harness

import (
	"strings"
	"sync"
	"testing"

	"ppsim/internal/admission"
	"ppsim/internal/cell"
	"ppsim/internal/fabric"
	"ppsim/internal/faults"
	"ppsim/internal/obs"
	"ppsim/internal/traffic"
)

func seriesByName(series []*obs.Series, name string) *obs.Series {
	for _, s := range series {
		if s.Name() == name {
			return s
		}
	}
	return nil
}

// TestProbesMatchRunResult cross-checks the probe series against the
// end-of-run aggregates of the same execution: the cumulative
// plane_peak_queue series must end at Result.PeakPlaneQueue, and with
// stride 1 every slot is sampled, so series length equals Result.Slots.
func TestProbesMatchRunResult(t *testing.T) {
	cfg := fabric.Config{N: 8, K: 4, RPrime: 2, CheckInvariants: true}
	src := &traffic.Flood{N: 8, Out: 0, Until: 16}
	probes := obs.StandardProbes(cfg.N, cfg.K, 1, 1<<16)
	res, err := Run(cfg, rrFactory, src, Options{Probes: probes})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Fatal("no series collected")
	}
	peak := seriesByName(res.Series, "plane_peak_queue")
	if peak == nil {
		t.Fatal("plane_peak_queue series missing")
	}
	last, ok := peak.Last()
	if !ok || int(last.Value) != res.PeakPlaneQueue {
		t.Errorf("final plane_peak_queue sample = %v, want %d", last.Value, res.PeakPlaneQueue)
	}
	if cell.Time(peak.Len()) != res.Slots {
		t.Errorf("series has %d samples, want one per slot (%d)", peak.Len(), res.Slots)
	}
	// Flood sends every cell to output 0, so any plane's total backlog is
	// also its per-output backlog and can never exceed the recorded peak.
	for k := 0; k < cfg.K; k++ {
		s := seriesByName(res.Series, "plane_backlog["+string(rune('0'+k))+"]")
		if s == nil {
			t.Fatalf("plane_backlog[%d] series missing", k)
		}
		if max, ok := s.Max(); ok && int(max.Value) > res.PeakPlaneQueue {
			t.Errorf("plane %d backlog %g exceeds PeakPlaneQueue %d", k, max.Value, res.PeakPlaneQueue)
		}
	}
	// In-flight series drain to zero at the end of the run.
	for _, name := range []string{"pps_in_flight", "shadow_in_flight"} {
		s := seriesByName(res.Series, name)
		if last, ok := s.Last(); !ok || last.Value != 0 {
			t.Errorf("%s final sample = %v, want 0 (drained)", name, last.Value)
		}
	}
}

// TestTracerOrderingUnderSlotLoop checks the event stream is slot-ordered
// and per-cell stage-ordered: arrival <= dispatch <= plane-enqueue <=
// mux-pull <= depart, with every departed cell tracing all five stages.
func TestTracerOrderingUnderSlotLoop(t *testing.T) {
	cfg := fabric.Config{N: 4, K: 2, RPrime: 2, CheckInvariants: true}
	tr := traffic.NewTrace()
	for s := cell.Time(0); s < 8; s++ {
		tr.MustAdd(s, cell.Port(s%4), cell.Port((s+1)%4))
	}
	ring := obs.NewRingSink(1 << 12)
	res, err := Run(cfg, rrFactory, tr, Options{Tracer: obs.NewTracer(ring)})
	if err != nil {
		t.Fatal(err)
	}
	evs := ring.Events()
	if res.TraceEvents != uint64(len(evs)) {
		t.Errorf("TraceEvents = %d, ring holds %d", res.TraceEvents, len(evs))
	}
	wantPerCell := []obs.EventKind{obs.EvArrival, obs.EvDispatch, obs.EvPlaneEnqueue, obs.EvMuxPull, obs.EvDepart}
	stages := map[uint64][]obs.Event{}
	lastT := cell.Time(-1)
	for _, ev := range evs {
		if ev.T < lastT {
			t.Fatalf("event at slot %d after slot %d", ev.T, lastT)
		}
		lastT = ev.T
		stages[ev.Seq] = append(stages[ev.Seq], ev)
	}
	if len(stages) != 8 {
		t.Fatalf("traced %d cells, want 8", len(stages))
	}
	for seq, sts := range stages {
		if len(sts) != len(wantPerCell) {
			t.Fatalf("cell %d traced %d stages, want %d: %+v", seq, len(sts), len(wantPerCell), sts)
		}
		for i, ev := range sts {
			if ev.Kind != wantPerCell[i] {
				t.Errorf("cell %d stage %d = %v, want %v", seq, i, ev.Kind, wantPerCell[i])
			}
			if i > 0 && ev.T < sts[i-1].T {
				t.Errorf("cell %d: %v at slot %d before %v at %d", seq, ev.Kind, ev.T, sts[i-1].Kind, sts[i-1].T)
			}
		}
	}
}

// TestTracerRecordsViolations fails a plane and checks the violation event
// reaches the sink before the run errors.
func TestTracerRecordsViolations(t *testing.T) {
	cfg := fabric.Config{N: 2, K: 2, RPrime: 1, CheckInvariants: true}
	tr := traffic.NewTrace()
	tr.MustAdd(0, 0, 1)
	ring := obs.NewRingSink(16)
	_, err := Run(cfg, rrFactory, tr, Options{
		FailPlanes: []cell.Plane{0}, // fresh rr dispatches to plane 0 first
		Tracer:     obs.NewTracer(ring),
	})
	if err == nil {
		t.Fatal("dispatch into a failed plane must error")
	}
	found := false
	for _, ev := range ring.Events() {
		if ev.Kind == obs.EvViolation && ev.Note != "" {
			found = true
		}
	}
	if !found {
		t.Errorf("no violation event traced; got %+v", ring.Events())
	}
}

// TestUtilizationOptIn: without the flag the per-output scan is skipped.
func TestUtilizationOptIn(t *testing.T) {
	cfg := fabric.Config{N: 4, K: 2, RPrime: 1, CheckInvariants: true}
	tr := traffic.NewTrace()
	tr.MustAdd(0, 0, 1)
	res, err := Run(cfg, rrFactory, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization != nil {
		t.Errorf("Utilization computed without opt-in: %v", res.Utilization)
	}
	res, err = Run(cfg, rrFactory, tr, Options{Utilization: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Utilization) != cfg.N {
		t.Errorf("opt-in Utilization has %d entries, want %d", len(res.Utilization), cfg.N)
	}
}

// telemetryRun is one of the mixed runs the totals tests share a Telemetry
// between: by index it is a tight token bucket (rejections), an
// overloaded deadline-drop run (expiries) or a mid-run outage under
// DropCount (drops), always traced, so every field of the totals block moves.
func telemetryRun(tel *obs.Telemetry, i int) (Result, error) {
	const n = 8
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
	opts := Options{Telemetry: tel, Tracer: obs.NewTracer(obs.NewRingSink(16))}
	var src traffic.Source = traffic.NewBernoulli(n, 0.7, 96, int64(i+1))
	switch i % 3 {
	case 0:
		opts.Admission = &admission.Spec{RateNum: 1, RateDen: 4, Burst: 1}
	case 1:
		cfg.K, cfg.RPrime = 2, 1
		hot, err := traffic.NewHotspot(n, 0.9, 0.8, 0, 96, int64(i+1))
		if err != nil {
			return Result{}, err
		}
		src = traffic.WithDeadline(hot, 6)
		opts.Admission = &admission.Spec{DeadlineDrop: true}
	case 2:
		opts.Faults = faults.NewSchedule().Outage(0, 20, 60)
		opts.FaultPolicy = faults.DropCount
	}
	return Run(cfg, rrFactory, src, opts)
}

// checkTotals asserts tel's totals block is exactly the sum of results.
func checkTotals(t *testing.T, tel *obs.Telemetry, results []Result) {
	t.Helper()
	want := obs.TelemetrySnapshot{}.Totals
	for _, r := range results {
		want.Slots += int64(r.Slots)
		want.Cells += int64(r.Report.Cells)
		want.Drops += int64(r.Drops)
		want.Rejected += int64(r.Report.Rejected)
		want.Expired += int64(r.Report.ExpiredAdmit + r.Report.ExpiredReseq)
		want.TraceEvents += int64(r.TraceEvents)
		want.PeakPlaneQueue = max(want.PeakPlaneQueue, int64(r.PeakPlaneQueue))
	}
	if want.Cells == 0 || want.Drops == 0 || want.Rejected == 0 || want.Expired == 0 || want.TraceEvents == 0 || want.PeakPlaneQueue == 0 {
		t.Fatalf("runs too tame to test the totals: %+v", want)
	}
	snap := tel.Snapshot()
	if snap.Totals != want {
		t.Errorf("totals = %+v, want %+v", snap.Totals, want)
	}
	if want := int64(len(results)); snap.RunsStarted != want || snap.RunsFinished != want || snap.Active != 0 || snap.RunsFailed != 0 {
		t.Errorf("run accounting wrong after %d clean runs: %+v", want, snap)
	}
	if snap.Delay.RQD.N != want.Cells {
		t.Errorf("delay.rqd.n = %d, want the %d delivered cells (no double count)", snap.Delay.RQD.N, want.Cells)
	}
}

// TestRunFillsMetricsRegistry checks the cross-run totals block: runs
// sharing one Telemetry — back to back, then eight at once (meaningful under
// -race) — leave totals equal to the sum of their Results.
func TestRunFillsMetricsRegistry(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		tel := obs.NewTelemetry()
		results := make([]Result, 3)
		for i := range results {
			var err error
			if results[i], err = telemetryRun(tel, i); err != nil {
				t.Fatal(err)
			}
		}
		checkTotals(t, tel, results)
	})
	t.Run("concurrent", func(t *testing.T) {
		tel := obs.NewTelemetry()
		results := make([]Result, 8)
		errs := make([]error, len(results))
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = telemetryRun(tel, i)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		checkTotals(t, tel, results)
	})
}

// TestFailedRunCountedAndFlushed pins Drive's error path: a run that aborts
// mid-flight (a plane fails under the Abort policy) still flushes the delay
// samples of its last partial flush stride, and shows up as runs_failed
// rather than as a clean finished run; totals stay successful-runs-only.
func TestFailedRunCountedAndFlushed(t *testing.T) {
	tel := obs.NewTelemetry()
	cfg := fabric.Config{N: 8, K: 4, RPrime: 2, CheckInvariants: true}
	_, err := Run(cfg, rrFactory, traffic.NewBernoulli(8, 0.7, 400, 5), Options{
		Telemetry: tel,
		Faults:    faults.NewSchedule().FailAt(1, 200),
	})
	if err == nil {
		t.Fatal("dispatch into a failed plane under Abort did not fail the run")
	}
	snap := tel.Snapshot()
	if snap.RunsStarted != 1 || snap.RunsFinished != 1 || snap.Active != 0 || snap.RunsFailed != 1 {
		t.Errorf("failed run accounting wrong: %+v", snap)
	}
	if snap.Delay.RQD.N == 0 {
		t.Error("failed run's delay samples never reached the telemetry")
	}
	if snap.Totals != (obs.TelemetrySnapshot{}.Totals) {
		t.Errorf("failed run leaked into totals: %+v", snap.Totals)
	}
}

// TestResultString covers the pretty-printer paths.
func TestResultString(t *testing.T) {
	cfg := fabric.Config{N: 4, K: 4, RPrime: 2, CheckInvariants: true}
	tr := traffic.NewTrace()
	for s := cell.Time(0); s < 6; s++ {
		tr.MustAdd(s, cell.Port(s%4), 0)
	}
	probes := obs.StandardProbes(cfg.N, cfg.K, 1, 64)
	ringTr := obs.NewTracer(obs.NewRingSink(1 << 10))
	res, err := Run(cfg, rrFactory, tr, Options{
		Validate: true, Utilization: true, Probes: probes, Tracer: ringTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	for _, want := range []string{"algorithm=rr", "peakPlaneQueue=", "stage wait", "utilization:", "series:", "trace events:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Result.String() missing %q:\n%s", want, out)
		}
	}
}

// TestFinalSlotFlushAcrossStrides is the regression test for the stride
// decimation bug: before the post-run flush, a stride that did not divide
// the final executed slot dropped it, so Last() reported pre-drain state.
// For every stride the in-flight series must now end at the final slot
// (value 0, the drained switch) with the point marked Final.
func TestFinalSlotFlushAcrossStrides(t *testing.T) {
	cfg := fabric.Config{N: 8, K: 4, RPrime: 2, CheckInvariants: true}
	for _, stride := range []cell.Time{1, 3, 7, 64} {
		src := traffic.NewBernoulli(cfg.N, 0.6, 200, 1)
		probes := obs.StandardProbes(cfg.N, cfg.K, stride, 0)
		res, err := Run(cfg, rrFactory, src, Options{Probes: probes})
		if err != nil {
			t.Fatal(err)
		}
		final := res.Slots - 1
		for _, name := range []string{"pps_in_flight", "shadow_in_flight", "input_depth_total"} {
			s := seriesByName(res.Series, name)
			last, ok := s.Last()
			if !ok {
				t.Fatalf("stride %d: %s is empty", stride, name)
			}
			if last.Slot != final {
				t.Errorf("stride %d: %s ends at slot %d, want final slot %d", stride, name, last.Slot, final)
			}
			if last.Value != 0 {
				t.Errorf("stride %d: %s final sample = %g, want 0 (drained)", stride, name, last.Value)
			}
			if !last.Final {
				t.Errorf("stride %d: %s final sample not marked Final", stride, name)
			}
		}
		// The flush must not duplicate an already-recorded final slot.
		s := seriesByName(res.Series, "pps_in_flight")
		pts := s.Points()
		for i := 1; i < len(pts); i++ {
			if pts[i].Slot <= pts[i-1].Slot {
				t.Fatalf("stride %d: series not strictly slot-ordered at %d: %v <= %v",
					stride, i, pts[i].Slot, pts[i-1].Slot)
			}
		}
	}
}

// TestDriveRejectsReusedFabric pins the single-use contract: per-run
// accounting (utilization windows, peaks, dispatch counters) is cumulative,
// so a second Drive on the same fabric must fail instead of silently
// blending runs.
func TestDriveRejectsReusedFabric(t *testing.T) {
	cfg := fabric.Config{N: 4, K: 2, RPrime: 1, CheckInvariants: true}
	pps, err := fabric.New(cfg, rrFactory)
	if err != nil {
		t.Fatal(err)
	}
	tr := traffic.NewTrace()
	tr.MustAdd(0, 0, 1)
	if _, err := Drive(pps, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	tr2 := traffic.NewTrace()
	tr2.MustAdd(0, 0, 1)
	if _, err := Drive(pps, tr2, Options{}); err == nil {
		t.Fatal("second Drive on the same fabric must error")
	} else if !strings.Contains(err.Error(), "already driven") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestMillionSlotSoakBoundedSeries drives a million-slot run with the full
// standard probe set and checks the instrumentation invariants at scale:
// every series stays within its ring capacity, is strictly slot-ordered,
// and ends on the forced final sample.
func TestMillionSlotSoakBoundedSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("million-slot soak skipped in -short mode")
	}
	const slots = 1 << 20
	const capacity = 1 << 12
	cfg := fabric.Config{N: 4, K: 2, RPrime: 2}
	src := traffic.NewBernoulli(cfg.N, 0.6, slots, 1)
	probes := obs.StandardProbes(cfg.N, cfg.K, 64, capacity)
	res, err := Run(cfg, rrFactory, src, Options{Probes: probes})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots < slots {
		t.Fatalf("run drained after %d slots, want >= %d", res.Slots, slots)
	}
	for _, s := range res.Series {
		if s.Len() > capacity {
			t.Errorf("%s holds %d points, capacity %d", s.Name(), s.Len(), capacity)
		}
		pts := s.Points()
		for i := 1; i < len(pts); i++ {
			if pts[i].Slot <= pts[i-1].Slot {
				t.Fatalf("%s not strictly slot-ordered at %d", s.Name(), i)
			}
		}
	}
	s := seriesByName(res.Series, "pps_in_flight")
	if last, ok := s.Last(); !ok || last.Slot != res.Slots-1 || !last.Final {
		t.Errorf("pps_in_flight last = %+v/%v, want Final point at slot %d", last, ok, res.Slots-1)
	}
}
