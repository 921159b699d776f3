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
	"ppsim/internal/shadow"
	"ppsim/internal/traffic"
)

// engineShapes are the traffic shapes of the engine equivalence matrix:
// saturated uniform traffic (no quiescent interval ever — idle elision must
// be a perfect no-op), sparse bursty traffic (long idle gaps — the payoff
// case), and full-rate adversarial permutation traffic (quiesces only in the
// tail drain, exercising the sparse busy-output sweep against heavy
// backlogs).
var engineShapes = []struct {
	name    string
	horizon cell.Time
	mk      func(n int, horizon cell.Time) traffic.Source
}{
	{"uniform", 256, func(n int, h cell.Time) traffic.Source {
		return traffic.NewBernoulli(n, 0.6, h, 11)
	}},
	{"sparse", 384, func(n int, h cell.Time) traffic.Source {
		src, err := traffic.NewOnOff(n, 4, 96, h, 5)
		if err != nil {
			panic(err)
		}
		return src
	}},
	{"adversarial", 192, func(n int, h cell.Time) traffic.Source {
		perm := make([]cell.Port, n)
		for i := range perm {
			perm[i] = cell.Port(n - 1 - i)
		}
		src, err := traffic.NewPermutation(perm, h)
		if err != nil {
			panic(err)
		}
		return src
	}},
}

// stripEngine zeroes the engine-metadata fields so equivalence tests can
// DeepEqual Results produced by different engines: the measurements must be
// bit-identical, while the record of which core ran — and with how many
// workers over which shard geometry — intentionally differs.
func stripEngine(r Result) Result {
	r.Engine, r.EngineReason = "", ""
	r.Workers, r.ShardPorts = 0, nil
	return r
}

// TestEngineEquivalenceMatrix is the bit-identity contract of every
// slot-execution core, in the style of TestParallelMatchesSerialMatrix: for
// every registered algorithm, traffic shape, worker count and fault schedule
// (none, and an outage straddling idle gaps under DropCount), the
// event-driven and auto-selected engines must produce Results deeply equal
// to the forced-stepped oracle — decimated series (ring state
// included, since DeepEqual follows the Series pointers into their
// unexported fields), drop counters, RQD/RDJ statistics, burstiness,
// utilization, everything except the Engine/EngineReason record itself.
// Stale-information algorithms and stage-parallel runs exercise the
// capability gates: they degrade (recording why) and must still match.
func TestEngineEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full equivalence matrix skipped in -short mode")
	}
	const n = 8
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
	schedules := []struct {
		name  string
		mk    func() *faults.Schedule
		polcy faults.Policy
	}{
		{"nofaults", func() *faults.Schedule { return nil }, faults.Abort},
		{"outage", func() *faults.Schedule {
			// Fail and recover land mid-run; with the sparse shape both
			// events fall inside idle gaps, so the jump must truncate at
			// them for the drop accounting to stay identical.
			return faults.NewSchedule().Outage(1, 100, 160)
		}, faults.DropCount},
	}
	var elided cell.Time
	eventRuns, fallbacks := 0, 0
	for _, alg := range matrixAlgs {
		for _, shape := range engineShapes {
			for _, w := range []int{0, 4} {
				for _, sched := range schedules {
					run := func(eng Engine) Result {
						opts := Options{
							Validate:    true,
							Workers:     w,
							Faults:      sched.mk(),
							FaultPolicy: sched.polcy,
							Engine:      eng,
							Probes:      obs.StandardProbes(n, cfg.K, 3, 16),
						}
						if shape.name == "sparse" && eng == EngineEvent {
							opts.OnFastForward = func(from, to cell.Time) { elided += to - from }
						}
						res, err := Run(cfg, alg.mk, shape.mk(n, shape.horizon), opts)
						if err != nil {
							t.Fatalf("%s/%s/w%d/%s engine=%v: %v", alg.name, shape.name, w, sched.name, eng, err)
						}
						return res
					}
					t.Run(fmt.Sprintf("%s/%s/w%d/%s", alg.name, shape.name, w, sched.name), func(t *testing.T) {
						stepped := run(EngineStepped)
						if stepped.Report.Cells == 0 {
							t.Fatal("empty stepped run")
						}
						if stepped.Engine != "stepped" || stepped.EngineReason != "" {
							t.Fatalf("forced stepped run recorded engine %q (%q)", stepped.Engine, stepped.EngineReason)
						}
						variants := []struct {
							name string
							res  Result
						}{
							{"event", run(EngineEvent)},
						}
						if w == 0 {
							variants = append(variants, struct {
								name string
								res  Result
							}{"auto", run(EngineAuto)})
						}
						for _, v := range variants {
							if !reflect.DeepEqual(stripEngine(stepped), stripEngine(v.res)) {
								t.Errorf("%s result diverges from stepped\nstepped: %+v\n%s: %+v", v.name, stepped, v.name, v.res)
							}
							if v.res.Engine == "event" {
								eventRuns++
								if w != 0 {
									t.Errorf("event core ran in a stage-parallel run (w=%d)", w)
								}
								if v.res.EngineReason != "" {
									t.Errorf("event run carries a degradation reason: %q", v.res.EngineReason)
								}
							} else if v.name == "event" {
								fallbacks++
								if v.res.EngineReason == "" {
									t.Errorf("event request degraded to %q without a reason", v.res.Engine)
								}
							}
						}
					})
				}
			}
		}
	}
	if elided == 0 {
		t.Error("sparse shape elided no slots under the event core: the quiet jump was never exercised")
	}
	if eventRuns == 0 {
		t.Error("no run used the event core")
	}
	if fallbacks == 0 {
		t.Error("no event request degraded: the capability gates were never exercised")
	}
}

// TestIdleJumpAllocFree pins the event core's elided-interval path at zero
// heap allocations per interval, the idle analogue of
// TestSteadyStateSlotAllocFree: one closed-form probe synthesis over a
// 64-slot span (rings warmed to capacity so ObserveSpan runs its overwrite
// arithmetic), the EventStep that lands on the quiet fabric at the end of
// the jump, and one memoized next-arrival query plus its consuming
// SlotArrivals call on a span feed over an RNG-backed source (slab refills
// included).
func TestIdleJumpAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; guard only meaningful on plain builds")
	}
	const warm = 512
	cfg := benchCfg()
	s := newSlotStepper(t, traffic.NewBernoulli(cfg.N, 0.6, warm, 1))
	for s.slot < warm || s.pps.Backlog() > 0 || s.sh.Backlog() > 0 {
		s.step()
	}
	probes := obs.StandardProbes(cfg.N, cfg.K, 4, 32)
	// The stepper drained its own shadow switch; an untouched oracle is the
	// same empty reference as far as the view is concerned.
	view := &slotView{pps: s.pps, sh: shadow.NewOracle(cfg.N), rec: s.rec}
	// Warm every ring past capacity (stride 4 x cap 32 < 192 slots) so the
	// measured spans exercise the steady-state overwrite path, not append
	// growth.
	cursor := s.slot
	sampleIdleSpan(probes, view, cursor, cursor+192)
	cursor += 192

	onoff, err := traffic.NewOnOff(cfg.N, 4, 64, cell.None, 3)
	if err != nil {
		t.Fatal(err)
	}
	feed := traffic.NewSpanFeed(onoff, cell.None)
	next := traffic.NewEventFeed(feed.Look())
	after := cell.Time(-1)
	// Warm the feed across enough bursts for its span to settle.
	for i := 0; i < 128; i++ {
		after = next.Next(after)
		feed.SlotArrivals(after)
	}

	allocs := testing.AllocsPerRun(64, func() {
		sampleIdleSpan(probes, view, cursor, cursor+64)
		var err error
		s.deps, err = s.pps.EventStep(cursor+64, nil, s.deps[:0])
		if err != nil {
			t.Fatal(err)
		}
		cursor += 65
		after = next.Next(after)
		feed.SlotArrivals(after)
	})
	if allocs != 0 {
		t.Errorf("elided interval allocates: %.2f allocs/interval, want 0", allocs)
	}
}

// TestTracedEventMatchesStepped holds a traced run on the event core to the
// stepped oracle: every trace event belongs to a cell, so an elided idle
// span emits nothing, and the two cores must produce DeepEqual Results and
// DeepEqual event streams. It covers every algorithm that does not read the
// global log, fault-free and under a mid-run outage with DropCount.
func TestTracedEventMatchesStepped(t *testing.T) {
	const n = 32
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
	var elided cell.Time
	for _, alg := range matrixAlgs {
		if strings.HasPrefix(alg.name, "stale-cpa") {
			continue // u-RT: reads the global log, so it runs stepped
		}
		for _, outage := range []bool{false, true} {
			run := func(eng Engine) (Result, []obs.Event) {
				ring := obs.NewRingSink(1 << 15)
				opts := Options{Validate: true, Engine: eng, Tracer: obs.NewTracer(ring),
					OnFastForward: func(from, to cell.Time) { elided += to - from }}
				if outage {
					opts.Faults, opts.FaultPolicy = faults.NewSchedule().Outage(1, 100, 160), faults.DropCount
				}
				src, err := traffic.NewOnOff(n, 4, 160, 600, 5)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(cfg, alg.mk, src, opts)
				if err != nil {
					t.Fatalf("%s outage=%v engine=%v: %v", alg.name, outage, eng, err)
				}
				if ring.Dropped() > 0 {
					t.Fatalf("%s: ring overflowed by %d events", alg.name, ring.Dropped())
				}
				return res, ring.Events()
			}
			stepped, steppedEvents := run(EngineStepped)
			event, eventEvents := run(EngineEvent)
			if event.Engine != "event" {
				t.Errorf("%s outage=%v: traced run took the %s core (%q)", alg.name, outage, event.Engine, event.EngineReason)
			}
			if !reflect.DeepEqual(stripEngine(stepped), stripEngine(event)) {
				t.Errorf("%s outage=%v: traced event result diverges from stepped\nstepped: %+v\nevent:   %+v", alg.name, outage, stepped, event)
			}
			if len(steppedEvents) == 0 || !reflect.DeepEqual(steppedEvents, eventEvents) {
				t.Errorf("%s outage=%v: event streams differ (%d stepped, %d event events)", alg.name, outage, len(steppedEvents), len(eventEvents))
			}
			if outage && stepped.Drops == 0 {
				t.Errorf("%s: the outage dropped nothing; schedule not exercised", alg.name)
			}
		}
	}
	if elided == 0 {
		t.Error("no idle span was elided; the traffic never quiesced")
	}
}

// opaqueSource hides the wrapped source's BatchSource capability: only the
// embedded interface's methods promote.
type opaqueSource struct{ traffic.Source }

// TestSelectEngine is the whole engine-resolution table: every request
// against every disqualifier. Stepped is always honored silently; auto and
// event resolve to the event core only for a serial run over a source read
// ahead in spans and an unarmed global log, and otherwise run stepped with
// the single reason that disqualified them. A tracer disqualifies nothing.
func TestSelectEngine(t *testing.T) {
	const n = 8
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1}
	stale := func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPA(e, 4) }
	faultStale := func(e demux.Env) (demux.Algorithm, error) { return demux.NewFaultAware(e, stale) }
	batch := traffic.NewBernoulli(n, 0.5, 64, 1)
	const urt = " reads the global event log (u-RT): its view advances every slot"
	cases := []struct {
		name    string
		mk      func(demux.Env) (demux.Algorithm, error)
		src     traffic.Source
		opts    Options
		workers int
		armLog  bool   // a diagnostic arms the log through PPS.Log
		reason  string // "" = eligible for the event core
	}{
		{name: "eligible", mk: rrFactory, src: batch},
		{name: "tracer", mk: rrFactory, src: batch, opts: Options{Tracer: obs.NewTracer(obs.NewRingSink(8))}},
		{name: "per-slot-source", mk: rrFactory, src: opaqueSource{batch},
			reason: "source does not implement traffic.BatchSource"},
		{name: "stale-family", mk: stale, src: batch, reason: "algorithm stale-cpa-u4" + urt},
		{name: "faultaware-stale", mk: faultStale, src: batch, reason: "algorithm faultaware(stale-cpa-u4)" + urt},
		{name: "armed-log", mk: rrFactory, src: batch, armLog: true, reason: "algorithm rr" + urt},
		{name: "workers", mk: rrFactory, src: batch, workers: 2,
			reason: "stage-parallel run: the event core is serial"},
	}
	for _, tc := range cases {
		c := cfg
		c.Workers = tc.workers
		pps, err := fabric.New(c, tc.mk)
		if err != nil {
			t.Fatal(err)
		}
		defer pps.Close()
		if tc.armLog {
			pps.Log()
		}
		for _, req := range []Engine{EngineAuto, EngineStepped, EngineEvent} {
			opts := tc.opts
			opts.Engine, opts.Workers = req, tc.workers
			wantEng, wantWhy := EngineEvent, ""
			if req == EngineStepped {
				wantEng = EngineStepped
			} else if tc.reason != "" {
				wantEng, wantWhy = EngineStepped, tc.reason
			}
			if eng, why := selectEngine(pps, traffic.NewSpanFeed(tc.src, 64), opts); eng != wantEng || why != wantWhy {
				t.Errorf("%s, requested %v: got (%v, %q), want (%v, %q)", tc.name, req, eng, why, wantEng, wantWhy)
			}
		}
	}
}

// pingPong is a closed-loop per-slot source: a window of one cell, the next
// offered the slot after the previous one left the PPS. Read ahead of the
// clock it would never see a departure and stall after its first cell.
type pingPong struct {
	until   cell.Time
	calls   []cell.Time
	credits int
}

func (p *pingPong) Arrivals(t cell.Time, dst []traffic.Arrival) []traffic.Arrival {
	p.calls = append(p.calls, t)
	if p.credits > 0 {
		p.credits--
		dst = append(dst, traffic.Arrival{In: 0, Out: 1})
	}
	return dst
}
func (p *pingPong) End() cell.Time { return p.until }

// TestPerSlotSourceIsCalledAtItsSlot is the plain-Source rung of the arrival
// contract: whatever engine is requested, a source without AppendArrivals is
// called exactly once per slot, at its slot — so it may react to the run it
// feeds — and the run reports the stepped core and why.
func TestPerSlotSourceIsCalledAtItsSlot(t *testing.T) {
	const until = 40
	cfg := fabric.Config{N: 4, K: 2, RPrime: 2, BufferCap: -1}
	for _, req := range []Engine{EngineAuto, EngineEvent, EngineStepped} {
		src := &pingPong{until: until, credits: 1}
		res, err := Run(cfg, rrFactory, src, Options{Engine: req, OnPPSDepart: func(cell.Cell) { src.credits++ }})
		if err != nil {
			t.Fatalf("engine=%v: %v", req, err)
		}
		wantWhy := "source does not implement traffic.BatchSource"
		if req == EngineStepped {
			wantWhy = ""
		}
		if res.Engine != "stepped" || res.EngineReason != wantWhy {
			t.Errorf("engine=%v: ran %q (%q), want stepped (%q)", req, res.Engine, res.EngineReason, wantWhy)
		}
		for i, at := range src.calls {
			if at != cell.Time(i) {
				t.Fatalf("engine=%v: call %d asked for slot %d", req, i, at)
			}
		}
		if len(src.calls) != until {
			t.Errorf("engine=%v: %d calls over %d slots", req, len(src.calls), until)
		}
		if res.Report.Cells < 2 {
			t.Errorf("engine=%v: the loop never closed: %d cells", req, res.Report.Cells)
		}
	}
}

// TestShapedSilentSourceElidesToHorizon: a Regulator (ppsim.Shape) over an
// unbounded source that never emits cannot be proved silent — its End stays
// None — so the look-ahead scan is bounded by the explicit Horizon alone, no
// hidden cap: the event run terminates, elides every slot up to the horizon
// in one jump and equals the stepped run.
func TestShapedSilentSourceElidesToHorizon(t *testing.T) {
	const n, horizon = 4, 50_000
	cfg := fabric.Config{N: n, K: 2, RPrime: 2, BufferCap: -1}
	var jumps [][2]cell.Time
	run := func(eng Engine) Result {
		src := traffic.NewRegulator(n, 2, traffic.NewBernoulli(n, 0, cell.None, 1))
		res, err := Run(cfg, rrFactory, src, Options{Horizon: horizon, Engine: eng, Validate: true,
			OnFastForward: func(from, to cell.Time) { jumps = append(jumps, [2]cell.Time{from, to}) }})
		if err != nil {
			t.Fatalf("engine=%v: %v", eng, err)
		}
		return res
	}
	event, stepped := run(EngineEvent), run(EngineStepped)
	if event.Engine != "event" || event.Slots != horizon {
		t.Errorf("event run: engine %q, %d slots, want event, %d", event.Engine, event.Slots, horizon)
	}
	if want := [][2]cell.Time{{0, horizon}}; !reflect.DeepEqual(jumps, want) {
		t.Errorf("idle jumps %v, want %v", jumps, want)
	}
	if !reflect.DeepEqual(stripEngine(event), stripEngine(stepped)) {
		t.Errorf("event result diverges from stepped\nstepped: %+v\nevent: %+v", stepped, event)
	}
}

// TestParseEngineRoundTripAndDeprecatedSpelling: every Engine parses back
// from its String, and a name that is no engine — "fastforward", the removed
// third core, included — is rejected.
func TestParseEngineRoundTripAndDeprecatedSpelling(t *testing.T) {
	for _, e := range []Engine{EngineAuto, EngineStepped, EngineEvent} {
		if got, err := ParseEngine(e.String()); err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	for _, name := range []string{"fastforward", "warp"} {
		if _, err := ParseEngine(name); err == nil {
			t.Errorf("unknown engine name %q accepted", name)
		}
	}
}
