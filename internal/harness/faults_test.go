package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/faults"
	"ppsim/internal/obs"
	"ppsim/internal/traffic"
)

// faultCases are the degraded-mode scenarios the equivalence matrix runs:
// a plane dead from slot 0, a mid-run transient outage, and both at once
// with the dead plane recovering mid-run.
var faultCases = []struct {
	name  string
	sched func() *faults.Schedule
}{
	{"prefailed", func() *faults.Schedule {
		return faults.NewSchedule().FailAt(3, 0)
	}},
	{"outage", func() *faults.Schedule {
		return faults.NewSchedule().Outage(0, 40, 120)
	}},
	{"prefailed+outage", func() *faults.Schedule {
		return faults.NewSchedule().Outage(3, 0, 64).Outage(0, 40, 120)
	}},
}

// TestParallelMatchesSerialFaults extends the determinism contract to
// degraded runs: with planes failing and recovering mid-run under the
// DropCount policy, every algorithm must produce a stage-parallel Result —
// including the drop totals and the per-plane/per-input breakdowns — that
// is bit-identical to the serial engine's.
func TestParallelMatchesSerialFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault equivalence matrix skipped in -short mode")
	}
	const n = 16
	horizon := cell.Time(192)
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
	for _, fc := range faultCases {
		for _, alg := range matrixAlgs {
			run := func(workers int) Result {
				src := traffic.NewBernoulli(n, 0.6, horizon, 11)
				res, err := Run(cfg, alg.mk, src, Options{
					Validate: true, Workers: workers,
					Faults: fc.sched(), FaultPolicy: faults.DropCount,
				})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", fc.name, alg.name, workers, err)
				}
				return res
			}
			serial := run(0)
			if serial.Report.Cells == 0 {
				t.Fatalf("%s/%s: empty serial run", fc.name, alg.name)
			}
			if serial.Drops == 0 {
				t.Fatalf("%s/%s: degraded run recorded no drops", fc.name, alg.name)
			}
			for _, w := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", fc.name, alg.name, w), func(t *testing.T) {
					if par := run(w); !reflect.DeepEqual(stripEngine(serial), stripEngine(par)) {
						t.Errorf("degraded parallel result diverges from serial\nserial:   %+v\nparallel: %+v", serial, par)
					}
				})
			}
		}
	}
}

// TestFaultAwareMatchesSerial runs the faultaware wrapper through the same
// degraded scenario on every engine — the serial event core against the
// stepped oracle and the stage-parallel workers: masking changes which
// planes the inner algorithm sees, and that masked view must also be
// deterministic. Round-robin consults the masked per-plane gate view; the
// other three consume maskedEnv.FreeGateMask, so the outage exercises the
// mask with a dead plane's bit cleared and restored.
func TestFaultAwareMatchesSerial(t *testing.T) {
	const n = 16
	horizon := cell.Time(192)
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
	inners := []struct {
		name string
		mk   func(demux.Env) (demux.Algorithm, error)
	}{
		{"rr", func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerInput) }},
		{"local-least-loaded", func(e demux.Env) (demux.Algorithm, error) { return demux.NewLocalLeastLoaded(e) }},
		{"random", func(e demux.Env) (demux.Algorithm, error) { return demux.NewRandom(e, 7) }},
		{"cpa-sets", func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPASets(e) }},
	}
	for _, inner := range inners {
		inner := inner
		t.Run(inner.name, func(t *testing.T) {
			mk := func(e demux.Env) (demux.Algorithm, error) { return demux.NewFaultAware(e, inner.mk) }
			run := func(workers int, eng Engine) Result {
				src := traffic.NewBernoulli(n, 0.6, horizon, 11)
				res, err := Run(cfg, mk, src, Options{
					Validate: true, Workers: workers, Engine: eng,
					Faults:      faults.NewSchedule().Outage(0, 40, 120),
					FaultPolicy: faults.DropCount,
				})
				if err != nil {
					t.Fatalf("workers=%d engine=%v: %v", workers, eng, err)
				}
				return res
			}
			serial := run(0, EngineAuto)
			if want := "faultaware(" + inner.name + ")"; serial.AlgorithmName != want {
				t.Fatalf("AlgorithmName = %q, want %q", serial.AlgorithmName, want)
			}
			if serial.Engine != "event" {
				t.Fatalf("serial run recorded engine %q (%q), want the event core", serial.Engine, serial.EngineReason)
			}
			// Masking routes around the outage, so only plane 0's backlog at
			// the failure instant can drop — never a fresh dispatch.
			if serial.Drops > uint64(serial.Report.Cells/10) {
				t.Errorf("faultaware drops = %d of %d cells; masking should prevent dead-plane dispatches",
					serial.Drops, serial.Report.Cells)
			}
			if stepped := run(0, EngineStepped); !reflect.DeepEqual(stripEngine(serial), stripEngine(stepped)) {
				t.Errorf("stepped faultaware result diverges from the event core")
			}
			for _, w := range []int{1, 4} {
				if par := run(w, EngineAuto); !reflect.DeepEqual(stripEngine(serial), stripEngine(par)) {
					t.Errorf("workers=%d: faultaware result diverges from serial", w)
				}
			}
		})
	}
}

// TestAbortEmptyScheduleInert is the golden no-regression contract: the
// Abort policy with an empty schedule must leave every algorithm's Result
// bit-identical to a run with no fault configuration at all (no new code
// executes on the hot path, so nothing can shift).
func TestAbortEmptyScheduleInert(t *testing.T) {
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
		bare := run(Options{Validate: true})
		configured := run(Options{
			Validate:    true,
			Faults:      faults.NewSchedule(),
			FaultPolicy: faults.Abort,
		})
		if !reflect.DeepEqual(bare, configured) {
			t.Errorf("%s: Abort + empty schedule perturbs the run\nbare:       %+v\nconfigured: %+v",
				alg.name, bare, configured)
		}
	}
}

// evDropCounter counts EvDrop events off the tracer stream.
type evDropCounter struct{ n uint64 }

func (c *evDropCounter) Emit(ev obs.Event) {
	if ev.Kind == obs.EvDrop {
		c.n++
	}
}

// TestDropsMatchTracerEvDrops ties the three drop ledgers together: the
// tracer's EvDrop stream, Result.Drops, and the per-plane/per-input
// breakdowns must all agree — and the stage-parallel engine must report the
// same totals as the traced serial run.
func TestDropsMatchTracerEvDrops(t *testing.T) {
	const n = 16
	horizon := cell.Time(192)
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
	sched := func() *faults.Schedule { return faults.NewSchedule().Outage(1, 30, 110) }
	run := func(workers int, sink obs.Sink) Result {
		src := traffic.NewBernoulli(n, 0.6, horizon, 11)
		opts := Options{
			Workers:     workers,
			Faults:      sched(),
			FaultPolicy: faults.DropCount,
		}
		if sink != nil {
			opts.Tracer = obs.NewTracer(sink)
		}
		res, err := Run(cfg, rrFactory, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	counter := &evDropCounter{}
	traced := run(0, counter)
	if traced.Drops == 0 {
		t.Fatal("outage run recorded no drops")
	}
	if counter.n != traced.Drops {
		t.Errorf("tracer saw %d EvDrop events, Result.Drops = %d", counter.n, traced.Drops)
	}
	var perPlane, perInput uint64
	for _, d := range traced.Report.DropsPerPlane {
		perPlane += d
	}
	for _, d := range traced.Report.DropsPerInput {
		perInput += d
	}
	if perPlane != traced.Drops || perInput != traced.Drops {
		t.Errorf("drop breakdowns disagree: perPlane=%d perInput=%d total=%d", perPlane, perInput, traced.Drops)
	}
	if parallel := run(4, nil); parallel.Drops != traced.Drops {
		t.Errorf("parallel run drops = %d, traced serial = %d", parallel.Drops, traced.Drops)
	}
}

// TestFailFromSlotZeroMatchesFailedPlane: a plane failed by the schedule
// event FailAt(k, 0) behaves exactly like one failed on the PPS itself
// before slot 0 — deeply equal Results, or the same error under Abort — for
// every policy and core. The schedule is the only way Options can fail a
// plane, so this pins that nothing was lost when the pre-slot-0 spelling
// went away.
func TestFailFromSlotZeroMatchesFailedPlane(t *testing.T) {
	const n = 8
	horizon := cell.Time(128)
	algs := []struct {
		name string
		mk   func(demux.Env) (demux.Algorithm, error)
	}{
		{"rr", rrFactory},
		{"cpa", func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.MinAvail) }},
		{"faultaware(rr)", func(e demux.Env) (demux.Algorithm, error) { return demux.NewFaultAware(e, rrFactory) }},
	}
	for _, alg := range algs {
		for _, pol := range []faults.Policy{faults.Abort, faults.DropCount} {
			for _, eng := range []Engine{EngineStepped, EngineEvent} {
				for _, dead := range [][]cell.Plane{{1}, {0, 2}} {
					name := fmt.Sprintf("%s/%s/%s/%v", alg.name, pol, eng, dead)
					cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true, FaultPolicy: pol}
					opts := Options{Validate: true, Engine: eng, FaultPolicy: pol}
					sched := faults.NewSchedule()
					for _, k := range dead {
						sched.FailAt(k, 0)
					}
					scheduled := opts
					scheduled.Faults = sched
					want, wantErr := Run(cfg, alg.mk, traffic.NewBernoulli(n, 0.6, horizon, 11), scheduled)

					pps, err := fabric.New(cfg, alg.mk)
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range dead {
						pps.Plane(k).Fail()
					}
					got, gotErr := Drive(pps, traffic.NewBernoulli(n, 0.6, horizon, 11), opts)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Errorf("%s: errors differ\nschedule:  %v\npre-failed: %v", name, wantErr, gotErr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: results differ\nschedule:  %+v\npre-failed: %+v", name, want, got)
					}
					// Only the fault-aware wrapper routes around the dead
					// planes: the others error under Abort and drop under
					// DropCount.
					masked := alg.name == "faultaware(rr)"
					if pol == faults.Abort && (wantErr == nil) != masked {
						t.Errorf("%s: err = %v", name, wantErr)
					}
					if pol == faults.DropCount && (want.Drops == 0) != masked {
						t.Errorf("%s: %d drops", name, want.Drops)
					}
				}
			}
		}
	}
}

// TestDriveRejectsConfigConflicts: a PPS applies Faults, FaultPolicy and
// Workers from its own config, so Drive refuses options that set them to
// something else instead of silently running without them, and Run refuses
// a config and options that disagree.
func TestDriveRejectsConfigConflicts(t *testing.T) {
	cfg := fabric.Config{N: 4, K: 4, RPrime: 2, CheckInvariants: true}
	sched := faults.NewSchedule().FailAt(0, 0)
	for _, r := range []struct {
		option string
		opts   Options
	}{
		{"Faults", Options{Faults: sched, FaultPolicy: faults.DropCount}},
		{"FaultPolicy", Options{FaultPolicy: faults.DropCount}},
		{"Workers", Options{Workers: 2}},
	} {
		pps, err := fabric.New(cfg, rrFactory)
		if err != nil {
			t.Fatal(err)
		}
		tr := traffic.NewTrace()
		tr.MustAdd(0, 0, 1)
		if _, err := Drive(pps, tr, r.opts); err == nil || !strings.Contains(err.Error(), "Options."+r.option) {
			t.Errorf("%s: err = %v, want it named", r.option, err)
		}
	}
	// Options that repeat the PPS's config are accepted.
	same := cfg
	same.Faults, same.FaultPolicy, same.Workers = sched, faults.DropCount, 2
	pps, err := fabric.New(same, rrFactory)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drive(pps, traffic.NewBernoulli(4, 0.5, 64, 1), Options{Faults: sched, FaultPolicy: faults.DropCount, Workers: 2})
	if err != nil || res.Drops == 0 {
		t.Errorf("matching options: drops %d, err %v; want drops and no error", res.Drops, err)
	}
	// Run forwards options into a config that leaves them zero, and
	// refuses a config value the options contradict.
	cfg.Workers = 1
	if _, err := Run(cfg, rrFactory, traffic.NewBernoulli(4, 0.5, 64, 1), Options{Workers: 2}); err == nil || !strings.Contains(err.Error(), "Options.Workers") {
		t.Errorf("Run with Config.Workers 1 and Options.Workers 2: err = %v, want it named", err)
	}
}

// TestFaultSlotAllocFree extends the allocation guard to degraded runs:
// once a DropCount schedule's events have all fired (drops recorded, plane
// recovered), the steady-state slot must still not touch the heap — the
// fault runtime's exhausted cursor is one bounds check, and every drop-side
// structure (the referee's gap tables, the resequencers' drop tables, drop
// counters) has reached its steady-state footprint during warm-up.
func TestFaultSlotAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; guard only meaningful on plain builds")
	}
	const warm, window = 4096, 512
	horizon := cell.Time(warm + window + 16)
	cfg := benchCfg()
	cfg.Faults = faults.NewSchedule().Outage(0, 100, 2000)
	cfg.FaultPolicy = faults.DropCount
	s := newSlotStepperCfg(t, cfg, traffic.NewBernoulli(cfg.N, 0.6, horizon, 1))
	for s.slot < warm {
		s.step()
	}
	if s.rec.Drops() == 0 {
		t.Fatal("warm-up outage recorded no drops")
	}
	allocs := testing.AllocsPerRun(window, s.step)
	if allocs != 0 {
		t.Errorf("degraded steady-state slot allocates: %.2f allocs/slot, want 0", allocs)
	}
}
