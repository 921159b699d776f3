package harness

import (
	"testing"
	"time"

	"ppsim/internal/admission"
	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/metrics"
	"ppsim/internal/obs"
	"ppsim/internal/shadow"
	"ppsim/internal/traffic"
)

// benchCfg is the hot-loop workload: checks off (the throughput
// configuration), moderate load, fixed seed so both variants run identical
// traffic.
func benchCfg() fabric.Config {
	return fabric.Config{N: 16, K: 8, RPrime: 2, CheckInvariants: false}
}

func benchRun(b testing.TB, opts Options) {
	src := traffic.NewBernoulli(16, 0.6, 2000, 1)
	res, err := Run(benchCfg(), rrFactory, src, opts)
	if err != nil {
		b.Fatal(err)
	}
	if res.Report.Cells == 0 {
		b.Fatal("empty run")
	}
}

// BenchmarkHarnessBaseline is the uninstrumented hot path: invariants off,
// no tracer, no probes, no utilization scan. n16 is the small run the
// instrumentation benchmarks below are read against; dense is benchmark/'s
// dense-bursty geometry through Run itself, the profile target of
// EXPERIMENTS.md "Benchmark workflow" (benchmark/run.sh stays the ruler).
func BenchmarkHarnessBaseline(b *testing.B) {
	b.Run("n16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchRun(b, Options{})
		}
	})
	b.Run("dense", func(b *testing.B) {
		cfg := benchCfg()
		cfg.N = 1024
		var cells uint64
		for i := 0; i < b.N; i++ {
			src, err := traffic.NewOnOff(1024, 8, 5.33, 1250, 1)
			if err != nil {
				b.Fatal(err)
			}
			res, err := Run(cfg, rrFactory, src, Options{})
			if err != nil {
				b.Fatal(err)
			}
			cells += res.Report.Cells
		}
		b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
	})
}

// BenchmarkHarnessIdleInstrumentation is the same run with the
// instrumentation layer attached but off: a null-sink tracer (a cached
// single branch per fabric site) and no probes. The guard test asserts it
// stays within a few percent of the baseline.
func BenchmarkHarnessIdleInstrumentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(b, Options{Tracer: obs.NewTracer(obs.NullSink{})})
	}
}

// BenchmarkHarnessActiveProbes prices the full standard probe set sampling
// every slot — the cost ceiling, recorded so future PRs see the perf
// trajectory (CI runs these with -benchtime=1x, non-gating).
func BenchmarkHarnessActiveProbes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(b, Options{Probes: obs.StandardProbes(16, 8, 1, 1<<15)})
	}
}

// BenchmarkHarnessActiveTracer prices a live ring-sink tracer.
func BenchmarkHarnessActiveTracer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(b, Options{Tracer: obs.NewTracer(obs.NewRingSink(1 << 12))})
	}
}

// slotStepper replicates Drive's per-slot operations (arrivals, admission,
// PPS step, departure recording) against shared scratch buffers, so tests
// and benchmarks can meter individual slots — Drive itself only exposes
// whole runs. Unlike Drive it steps a real shadow.Switch and reports each
// shadow departure in the slot it happens, PPS departures first: it is the
// reference TestDriveMatchesSteppedShadow holds the closed form to.
type slotStepper struct {
	tb                      testing.TB
	pps                     *fabric.PPS
	sh                      *shadow.Switch
	st                      *cell.Stamper
	rec                     *metrics.Recorder
	src                     traffic.Source
	buf                     []traffic.Arrival
	deps, shadowDeps, cells []cell.Cell
	slot                    cell.Time
	// tel/telPrev, when set, replicate Drive's live-telemetry path: a tick
	// per slot and a histogram delta-flush at the flush stride.
	tel     *obs.Telemetry
	telPrev *obs.DelaySet
	// adm, when set, is Drive's admission gate and egress deadline check.
	adm *admission.Runtime
}

func newSlotStepper(tb testing.TB, src traffic.Source) *slotStepper {
	return newSlotStepperCfg(tb, benchCfg(), src)
}

func newSlotStepperCfg(tb testing.TB, cfg fabric.Config, src traffic.Source) *slotStepper {
	return newSlotStepperAlg(tb, cfg, rrFactory, src)
}

func newSlotStepperAlg(tb testing.TB, cfg fabric.Config, mk func(demux.Env) (demux.Algorithm, error), src traffic.Source) *slotStepper {
	pps, err := fabric.New(cfg, mk)
	if err != nil {
		tb.Fatal(err)
	}
	return &slotStepper{
		tb: tb, pps: pps, sh: shadow.New(cfg.N),
		st: cell.NewStamper(), rec: metrics.NewRecorder(), src: src,
	}
}

func (s *slotStepper) step() {
	s.cells = s.cells[:0]
	s.buf = s.src.Arrivals(s.slot, s.buf[:0])
	for _, a := range s.buf {
		s.rec.OfferCell()
		if s.adm != nil {
			if s.adm.Expired(s.slot, a.Deadline) {
				s.rec.ExpireAtAdmission()
				continue
			}
			if !s.adm.Admit(s.slot, a.In) {
				s.rec.RejectCell(a.In)
				continue
			}
		}
		s.rec.AdmitCell()
		c := s.st.Stamp(cell.Flow{In: a.In, Out: a.Out}, s.slot)
		c.Deadline = a.Deadline
		s.cells = append(s.cells, c)
	}
	var err error
	s.deps, err = s.pps.Step(s.slot, s.cells, s.deps[:0])
	if err != nil {
		s.tb.Fatal(err)
	}
	for _, d := range s.deps {
		if s.adm != nil && s.adm.Expired(d.Depart, d.Deadline) {
			s.rec.PPSExpired(d)
			continue
		}
		s.rec.PPSDepart(d)
		if d.Deadline == 0 || d.Depart <= d.Deadline {
			s.rec.OnTimeCell()
		}
	}
	for _, d := range s.pps.SlotDrops() {
		s.rec.PPSDrop(d)
	}
	s.shadowDeps = s.sh.Step(s.slot, s.cells, s.shadowDeps[:0])
	for _, d := range s.shadowDeps {
		s.rec.ShadowDepart(d)
	}
	if s.tel != nil {
		s.tel.Tick(int64(s.slot), s.pps.Backlog(), s.rec.Matched(), s.rec.Drops(), s.rec.AdmittedTotal(), s.rec.RejectedTotal(), s.rec.ExpiredTotal())
		if s.slot%telemetryFlushStride == 0 {
			s.tel.ObserveDelays(s.rec.Delays(), s.telPrev)
		}
	}
	s.slot++
}

// attachTelemetry wires a live telemetry aggregator into the stepper, as
// Drive would.
func (s *slotStepper) attachTelemetry() {
	s.tel = obs.NewTelemetry()
	s.telPrev = obs.NewDelaySet()
}

// TestSteadyStateSlotAllocFree is the allocation guard: with checks,
// tracing and probes all disabled, a slot of the drained-steady-state
// engine must not touch the heap. The warm-up drives every lazily-built
// structure (flow tables, ring capacities, the resequencer tables, the
// recorder's in-flight window and RQD count table) to its steady-state
// footprint with nothing pre-sized, so any allocation in the measured
// window is a regression on the hot path. Percentile recording (the
// recorder's streaming delay histograms are always on) and the
// live-telemetry tick + delta-flush path are included: the measured window
// straddles a flush stride, so the O(buckets) fold is exercised too.
//
// The N = 1024 on/off case is the headline geometry (benchmark/'s
// dense-bursty): new flows never stop appearing there, so it holds only
// because no resequencer structure is per flow — the tables' footprint is
// the parked population, which the warm-up reaches.
func TestSteadyStateSlotAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; guard only meaningful on plain builds")
	}
	t.Run("n16-bernoulli", func(t *testing.T) {
		const warm, window = 4096, 512
		s := newSlotStepper(t, traffic.NewBernoulli(benchCfg().N, 0.6, warm+window+16, 1))
		s.attachTelemetry()
		for s.slot < warm {
			s.step()
		}
		if allocs := testing.AllocsPerRun(window, s.step); allocs != 0 {
			t.Errorf("steady-state slot allocates: %.2f allocs/slot, want 0", allocs)
		}
	})
	t.Run("n1024-onoff", func(t *testing.T) {
		if testing.Short() {
			t.Skip("1.3M-cell warm-up skipped in -short mode")
		}
		const warm, window = 2048, 128
		src, err := traffic.NewOnOff(1024, 8, 5.33, warm+window+16, 1)
		if err != nil {
			t.Fatal(err)
		}
		s := newSlotStepperCfg(t, fabric.Config{N: 1024, K: 8, RPrime: 2}, src)
		for s.slot < warm {
			s.step()
		}
		if s.pps.Backlog() == 0 {
			t.Fatal("warm-up drained the switch; the window would measure an idle resequencer")
		}
		if allocs := testing.AllocsPerRun(window, s.step); allocs != 0 {
			t.Errorf("steady-state slot allocates: %.2f allocs/slot, want 0", allocs)
		}
	})
}

// TestParallelSlotAllocFree is the same guard for the stage-parallel
// engine: with a 4-worker pool executing stages 3 and 4, the steady-state
// slot must still not touch the heap — the pool is spawned once in
// fabric.New, the per-slot handoff is a mailbox word store plus a
// non-blocking token toss per worker (no channel of jobs, no WaitGroup),
// and the batched mux path moves 32-bit refs through the sharded columnar
// cell store, whose slabs and freelists reach a fixed point during warm-up.
// The load keeps the store live through the measured window (asserted), so
// the 0-allocs figure covers Put/At/Free recycling, not an idle arena.
func TestParallelSlotAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; guard only meaningful on plain builds")
	}
	const warm, window = 4096, 512
	horizon := cell.Time(warm + window + 16)
	cfg := benchCfg()
	cfg.Workers = 4
	s := newSlotStepperCfg(t, cfg, traffic.NewBernoulli(cfg.N, 0.6, horizon, 1))
	s.attachTelemetry()
	defer s.pps.Close()
	if s.pps.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", s.pps.Workers())
	}
	if got := s.pps.ShardPorts(); len(got) != 4 {
		t.Fatalf("ShardPorts() = %v, want 4 shards", got)
	}
	for s.slot < warm {
		s.step()
	}
	if s.pps.Backlog() == 0 {
		t.Fatal("warm-up drained the switch; the window would measure an idle store")
	}
	allocs := testing.AllocsPerRun(window, s.step)
	if allocs != 0 {
		t.Errorf("parallel steady-state slot allocates: %.2f allocs/slot, want 0", allocs)
	}
}

// BenchmarkHarnessSteadyStateSlot prices one steady-state slot (allocs/op
// should read 0 — the guard test above enforces it).
func BenchmarkHarnessSteadyStateSlot(b *testing.B) {
	horizon := cell.Time(b.N + 4096 + 16)
	s := newSlotStepper(b, traffic.NewBernoulli(benchCfg().N, 0.6, horizon, 1))
	for s.slot < 4096 {
		s.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step()
	}
}

// TestIdleInstrumentationOverheadGuard asserts the instrumented-but-idle
// hot path stays close to the uninstrumented baseline. The design target
// is ~5%; the assertion allows 25% because CI timing noise on a ~10ms
// workload easily exceeds the real gap — the benchmarks above report the
// precise ratio. Min-of-rounds filters scheduler interference.
func TestIdleInstrumentationOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive guard skipped in -short mode")
	}
	measure := func(opts Options) time.Duration {
		start := time.Now()
		benchRun(t, opts)
		return time.Since(start)
	}
	idleOpts := func() Options { return Options{Tracer: obs.NewTracer(obs.NullSink{})} }
	// Warm up both paths once, then interleave rounds and keep the minima.
	measure(Options{})
	measure(idleOpts())
	base, idle := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < 5; round++ {
		if d := measure(Options{}); d < base {
			base = d
		}
		if d := measure(idleOpts()); d < idle {
			idle = d
		}
	}
	ratio := float64(idle) / float64(base)
	t.Logf("baseline=%v idle-instrumented=%v ratio=%.3f (target ~1.05)", base, idle, ratio)
	if ratio > 1.25 {
		t.Errorf("idle instrumentation overhead ratio %.3f exceeds guard threshold 1.25 (baseline %v, instrumented %v)",
			ratio, base, idle)
	}
}
