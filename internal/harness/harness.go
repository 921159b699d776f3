// Package harness runs matched executions: one traffic source feeding a
// switch under test — the PPS or a baseline — slot by slot, and the shadow
// reference switch in closed form, until both drain. It is the engine behind
// the public API, the experiment suite and the adversary's scratch
// simulations.
package harness

import (
	"fmt"
	"strings"

	"ppsim/internal/admission"
	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/faults"
	"ppsim/internal/metrics"
	"ppsim/internal/obs"
	"ppsim/internal/shadow"
	"ppsim/internal/traffic"
)

// Options tunes a run.
type Options struct {
	// Horizon stops feeding arrivals at this slot even if the source is
	// unbounded; 0 means "trust the source's End()". A run with an
	// unbounded source and Horizon 0 is an error.
	Horizon cell.Time
	// MaxSlots caps the run length (default 1<<22): a run that reaches it
	// before the horizon is consumed and both switches have drained returns
	// an error, never a truncated Result.
	MaxSlots cell.Time
	// OnPPSDepart, if non-nil, observes every departure of the switch
	// under test (a PPS sets all stage stamps).
	OnPPSDepart func(cell.Cell)
	// Validate measures the traffic's leaky-bucket burstiness during the
	// run (cheap, but off by default, ppsim.Run included).
	Validate bool
	// Faults schedules plane fail/recover events (and optional per-plane
	// cell loss); nil injects nothing. It is the one way to fail a plane:
	// FailAt(k, 0) takes plane k down before the first arrival, which the
	// fault-tolerance experiments use to find which inputs a failure
	// strands (Section 3 of the paper). Forwarded to fabric.Config.Faults
	// when the config leaves it nil; Drive rejects a schedule that differs
	// from the PPS's own.
	Faults *faults.Schedule
	// FaultPolicy decides what a dispatch into a failed plane means:
	// faults.Abort (default, the model's no-drop semantics: the run errors)
	// or faults.DropCount (accounted losses, Result.Drops). Forwarded to
	// fabric.Config.FaultPolicy when the config leaves it Abort; Drive
	// rejects a policy that differs from the PPS's own.
	FaultPolicy faults.Policy
	// Admission is the policy evaluated in front of the demux, in the
	// serial recorder-side arrival phase: every offered arrival is admitted
	// (stamped and fed to both switches), rejected by a token bucket, or —
	// under deadline-drop — expired. nil and the empty always-admit spec
	// are byte-identical to no admission at all. Deliveries that miss their
	// deadline under deadline-drop are reclassified as expired at egress
	// rather than intercepted in the mux stage, so every engine and worker
	// configuration stays bit-identical (DESIGN.md §14). The spec is
	// validated before the run starts.
	Admission *admission.Spec
	// Probes are sampled once per slot, after the mux phase, so their
	// series align with the paper's departure-time accounting (DESIGN.md
	// §7). Probes must not be shared between concurrent runs.
	Probes []*obs.Probe
	// Tracer, if non-nil, receives the structured event stream (arrival,
	// dispatch, plane-enqueue, mux-pull, depart, constraint-violation)
	// from the fabric. Every event belongs to a cell, so an idle span the
	// event core elides emits nothing, and both cores emit the same stream.
	Tracer *obs.Tracer
	// Telemetry, if non-nil, receives live run state: per-slot gauges every
	// slot (atomic stores, allocation-free) and the delay-attribution
	// histograms at a coarse flush cadence, so external observers (ppsim exp's
	// /telemetry endpoint) can snapshot a run mid-flight; a successful run
	// adds its end-of-run totals, a failed one is counted. When nil, the
	// process-global aggregator (obs.SetGlobalTelemetry) is used if one is
	// installed. A single Telemetry may be shared across concurrent runs.
	Telemetry *obs.Telemetry
	// Workers engages the stage-parallel engines: 0 (the default) runs
	// everything serially, -1 picks a fabric worker count from GOMAXPROCS
	// and N (fabric.ResolveWorkers), and a positive value uses exactly
	// that many fabric workers (clamped to N). Auto mode enforces a floor
	// of 16 output-ports per shard and falls back to serial below it —
	// the per-slot stage barrier costs more than such small shards save —
	// so -1 on a small switch can legitimately resolve to 0; an explicit
	// positive request bypasses the floor. Result.Workers and
	// Result.ShardPorts record what actually ran. Any non-zero value pins
	// the run to the stepped core: every slot executes, idle ones included,
	// so sparse long-horizon runs belong on the serial event core.
	// Results are bit-identical across all settings; Run forwards the
	// value to fabric.Config.Workers when the config leaves it zero, and
	// Drive rejects a value that differs from the PPS's own.
	Workers int
	// Engine selects the slot-execution core (see the Engine constants).
	// The zero value, EngineAuto, runs the event-driven core whenever the
	// run qualifies and the stepped core otherwise; every choice is
	// bit-identical, and Result.Engine/Result.EngineReason record what
	// actually ran and why a request was degraded.
	Engine Engine
	// OnFastForward, if non-nil, observes every idle jump of the event core
	// as the half-open elided interval [from, to). It is a callback rather
	// than a Result field so event and stepped runs of the same workload
	// produce deeply equal Results.
	OnFastForward func(from, to cell.Time)
}

// Result summarizes a matched execution.
type Result struct {
	Report metrics.Report
	// Burstiness is the measured leaky-bucket B of the offered traffic
	// (only if Options.Validate).
	Burstiness int64
	// PeakPlaneQueue is the largest per-output backlog in any plane.
	PeakPlaneQueue int
	// Slots is the number of slots until both switches drained.
	Slots cell.Time
	// Utilization is the per-output busy fraction between first and last
	// departure; nil for a baseline switch under test.
	Utilization []float64
	// Series holds the time series sampled by Options.Probes, in probe
	// order; nil when no probes were attached.
	Series []*obs.Series
	// TraceEvents counts events emitted to Options.Tracer.
	TraceEvents uint64
	// AlgorithmName echoes the algorithm under test.
	AlgorithmName string
	// Drops is the number of cells lost to failed planes under the
	// DropCount fault policy (0 under Abort); Report.DropsPerPlane and
	// Report.DropsPerInput break it down.
	Drops uint64
	// Engine records the slot-execution core that actually ran: "stepped"
	// or "event". Both produce identical measurements, so tests comparing
	// engines normalize these two fields away.
	Engine string
	// EngineReason is empty when the requested engine (or, under
	// EngineAuto, the event core) ran, and otherwise explains the
	// degradation — e.g. a worker pool pinning the run to the stepped
	// core, or a u-RT algorithm whose view of the global log advances every
	// slot. CLIs surface it so users expecting elision learn
	// they ran stepped.
	EngineReason string
	// Workers records the effective stage-parallel worker count the fabric
	// resolved for the run (0 = serial engine). Note that Options.Workers
	// is a request: -1 (auto) derives the count from GOMAXPROCS and N and
	// falls back to serial when shards would hold fewer than 16 ports
	// (fabric.ResolveWorkers). Like Engine, tests comparing engine
	// configurations normalize this field (and ShardPorts) away.
	Workers int
	// ShardPorts is the per-worker output-shard width of the stage-parallel
	// engine — ShardPorts[w] output-ports (and one columnar-store slab) per
	// worker w — or nil for the serial engine. Recorded so benchmark JSON
	// can attribute throughput to the shard geometry that produced it.
	ShardPorts []int
	// Goodput is delivered (matched) cells per slot over the whole run —
	// the throughput that survived admission, faults and deadlines.
	Goodput float64
	// OnTimeFraction mirrors Report.OnTimeFraction: deliveries that met
	// their deadline (no-deadline cells count as on time) over offered
	// arrivals. 1.0 for a clean full-delivery run.
	OnTimeFraction float64
}

// Run executes src through a fresh PPS built from cfg and factory, and
// through the shadow switch, until both drain.
func Run(cfg fabric.Config, factory func(demux.Env) (demux.Algorithm, error), src traffic.Source, opts Options) (Result, error) {
	if cfg.Workers == 0 {
		cfg.Workers = opts.Workers
	}
	if cfg.Faults == nil {
		cfg.Faults = opts.Faults
	}
	if cfg.FaultPolicy == faults.Abort {
		cfg.FaultPolicy = opts.FaultPolicy
	}
	pps, err := fabric.New(cfg, factory)
	if err != nil {
		return Result{}, err
	}
	return Drive(pps, src, opts)
}

// telemetryFlushStride is how often (in slots) Drive folds the recorder's
// delay histograms into the live telemetry aggregator. Coarse on purpose:
// the flush takes the aggregator's mutex and walks every histogram bucket,
// so it must stay off the per-slot fast path; /telemetry snapshots are at
// most this many slots stale.
const telemetryFlushStride = 4096

// slotView adapts the matched execution for obs.Probe sampling. It is
// refreshed (slot and front-RQD) each slot and handed to every probe.
type slotView struct {
	pps   *fabric.PPS
	sh    *shadow.Oracle
	rec   *metrics.Recorder
	slot  cell.Time
	rqd   cell.Time
	rqdOK bool
}

func (v *slotView) Slot() cell.Time           { return v.slot }
func (v *slotView) Ports() int                { return v.pps.Config().N }
func (v *slotView) Planes() int               { return v.pps.Config().K }
func (v *slotView) PlaneBacklog(k int) int    { return v.pps.Plane(cell.Plane(k)).Backlog() }
func (v *slotView) PlanePeak(k int) int       { return v.pps.Plane(cell.Plane(k)).PeakQueue() }
func (v *slotView) InputDepth(i int) int      { return v.pps.InputPending(cell.Port(i)) }
func (v *slotView) OutputPulls(j int) int64   { return v.pps.OutputPulls(cell.Port(j)) }
func (v *slotView) DispatchedTo(k int) uint64 { return v.pps.DispatchedTo(cell.Plane(k)) }
func (v *slotView) PPSInFlight() int          { return v.pps.Backlog() }
func (v *slotView) ShadowInFlight() int       { return v.sh.Backlog(v.slot) }
func (v *slotView) FrontRQD() (int64, bool)   { return int64(v.rqd), v.rqdOK }
func (v *slotView) LivePlanes() int           { return v.pps.LivePlanes() }
func (v *slotView) DroppedTotal() uint64      { return v.pps.Dropped() }
func (v *slotView) AdmittedTotal() uint64     { return v.rec.AdmittedTotal() }
func (v *slotView) RejectedTotal() uint64     { return v.rec.RejectedTotal() }
func (v *slotView) ExpiredTotal() uint64      { return v.rec.ExpiredTotal() }

// Switch is a switch under test: the PPS, or a baseline such as the crossbar
// or the CIOQ switch. Step presents slot t's stamped arrivals and appends the
// slot's departures, Depart set, to dst. A baseline runs on the stepped core,
// and the PPS-only options (Probes, Tracer, Faults, FaultPolicy DropCount,
// Workers) are errors for it.
type Switch interface {
	Ports() int
	Step(t cell.Time, arrivals, dst []cell.Cell) ([]cell.Cell, error)
	Backlog() int
	Drained() bool
}

// driver bundles the per-run state shared by the slot loop (run) and
// Drive's teardown: both switches, the stamper, the recorder, the probe
// view, the telemetry sinks and the reusable scratch buffers.
type driver struct {
	sw Switch
	// pps is sw when it is a PPS and nil for a baseline; the event core,
	// drops, probes and the fabric's own statistics read it.
	pps *fabric.PPS
	// sh is the reference switch in closed form (DESIGN.md §10): an admitted
	// cell's shadow departure is known the slot it arrives, and shLast, the
	// latest one handed out, makes "the shadow switch has drained before slot
	// t" the test shLast < t.
	sh      *shadow.Oracle
	shLast  cell.Time
	opts    *Options
	end     cell.Time
	st      *cell.Stamper
	rec     *metrics.Recorder
	vd      *traffic.Validator
	probing bool
	view    *slotView
	tel     *obs.Telemetry
	telPrev *obs.DelaySet
	// feed serves the arrival phase: a traffic.BatchSource is read ahead in
	// spans, one slab per span, and the slab answers the event core's "when
	// is the next arrival?"; any other source is called per slot, at its
	// slot. Both cores (and the admission gate inside feedSlot) consume
	// slots through it.
	feed *traffic.SpanFeed
	// adm is the admission runtime, nil under always-admit (nil or empty
	// spec) — the gate in feedSlot then reduces to the bare counters, so a
	// run without admission is byte-identical to the pre-admission harness.
	adm *admission.Runtime

	deps, cellsBuf []cell.Cell
}

// feedSlot reads, validates, admits and stamps slot t's arrivals into the
// reusable cell buffer. The admission gate runs here — in the serial
// recorder-side arrival phase, before stamping — so rejected arrivals are
// never stamped: sequence numbers stay dense and the PPS, the shadow switch
// and every engine see the identical admitted stream. The validator observes
// the *offered* traffic (burstiness measures what was asked of the switch,
// not what the policy let through). The fabric copies cells into its own
// queues, so the scratch slice is safe to reuse across slots.
func (d *driver) feedSlot(t cell.Time) ([]cell.Cell, error) {
	cells := d.cellsBuf[:0]
	arrs := d.feed.SlotArrivals(t)
	if d.vd != nil {
		if err := d.vd.Observe(t, arrs); err != nil {
			return nil, err
		}
	}
	for _, a := range arrs {
		d.rec.OfferCell()
		if d.adm != nil {
			// Deadline expiry is checked before the token bucket: a cell
			// that is already late must not consume tokens a timely cell
			// could have used.
			if d.adm.Expired(t, a.Deadline) {
				d.rec.ExpireAtAdmission()
				continue
			}
			if !d.adm.Admit(t, a.In) {
				d.rec.RejectCell(a.In)
				continue
			}
		}
		d.rec.AdmitCell()
		c := d.st.Stamp(cell.Flow{In: a.In, Out: a.Out}, t)
		c.Deadline = a.Deadline
		cells = append(cells, c)
	}
	d.cellsBuf = cells
	return cells, nil
}

// recordShadow gives every cell the fabric accepted this slot its departure
// from the reference switch — an FCFS work-conserving output queue emits it
// at max(arrival, next free slot of its output) — and hands it to the
// recorder. It runs after the switch's step, which has by then rejected any
// destination outside the switch.
func (d *driver) recordShadow(cells []cell.Cell) {
	for _, c := range cells {
		c.Depart = d.sh.Departure(c.Arrive, c.Flow.Out)
		if c.Depart > d.shLast {
			d.shLast = c.Depart
		}
		d.rec.ShadowDepart(c)
	}
}

// shadowDrained reports whether the reference switch is empty at the start
// of slot t.
func (d *driver) shadowDrained(t cell.Time) bool { return d.shLast < t }

// recordDepartures feeds the slot's PPS departures and drops into the
// recorder (and the caller's observer). Only the driving goroutine touches
// the recorder, in the serial order: shadow departures of the slot's
// arrivals, then PPS departures, then drops. Under deadline-drop admission a
// delivery that missed its deadline is reclassified here as expired — the
// lazy-egress design of DESIGN.md §14: the cell physically traversed the
// fabric (so the mux stage stays engine-identical), but it counts as dropped
// at resequencing, not as a delivery.
func (d *driver) recordDepartures() {
	for _, c := range d.deps {
		if d.adm != nil && d.adm.Expired(c.Depart, c.Deadline) {
			d.rec.PPSExpired(c)
			continue
		}
		d.rec.PPSDepart(c)
		if c.Deadline == 0 || c.Depart <= c.Deadline {
			d.rec.OnTimeCell()
		}
		if d.opts.OnPPSDepart != nil {
			d.opts.OnPPSDepart(c)
		}
	}
	if d.pps != nil {
		for _, c := range d.pps.SlotDrops() {
			d.rec.PPSDrop(c)
		}
	}
}

// sampleSlot samples every probe after the mux phase of slot t (all pulls
// and departures applied), so series align with departure-time accounting —
// see DESIGN.md §7.
func (d *driver) sampleSlot(t cell.Time) {
	d.view.slot = t
	d.view.rqd, d.view.rqdOK = 0, false
	for _, c := range d.deps {
		if q, ok := d.rec.RQD(c.Seq); ok && (!d.view.rqdOK || q > d.view.rqd) {
			d.view.rqd, d.view.rqdOK = q, true
		}
	}
	for _, pb := range d.opts.Probes {
		pb.Sample(d.view)
	}
}

// run is the slot loop, shared by both cores. The stepped core (event false)
// executes every slot through the switch's Step — the naive oracle, and the
// only core that runs baselines and stage-parallel, per-slot-source or
// stale-information configurations. The event core (event true) differs
// in two places: slots execute through fabric.EventStep, the same slot body
// with the sparse checks, which only touches the pending inputs and busy
// outputs; and when both switches are fully quiet the clock jumps in one
// step to the next event — the source's next arrival, the next fault due
// time, or the horizon, whichever comes first — with the probe samples of
// the elided span synthesized in closed form. Cost is then O(events), not
// O(slots), and results are bit-identical to stepping (DESIGN.md §10).
//
// selectEngine guarantees the event core's preconditions: a PPS under test,
// a serial run, a source read ahead in spans, and no reader of the global
// log.
//
// run returns where the loop stopped: the first slot at or past the horizon
// with both switches drained, or MaxSlots.
func (d *driver) run(event bool) (cell.Time, error) {
	sw, pps, opts, end := d.sw, d.pps, d.opts, d.end

	var next *traffic.EventFeed
	if event {
		next = traffic.NewEventFeed(d.feed.Look())
	}
	// executed counts slots that ran (all of them under the stepped core); it
	// paces the telemetry flush, which a mostly-elided run would otherwise
	// hit on almost every executed slot (or never).
	executed := cell.Time(0)
	var err error
	slot := cell.Time(0)
	for ; slot < opts.MaxSlots; slot++ {
		if slot >= end && sw.Drained() && d.shadowDrained(slot) {
			break
		}
		if event && pps.Backlog() == 0 && d.shadowDrained(slot) {
			// Fully quiet (the O(1) backlog counter makes this check free):
			// nothing can move before the next arrival or fault, so unless
			// one is due this very slot, jump. slot < end here — otherwise
			// the loop would have terminated above — so the feed query is
			// within the monotone-consumption contract.
			na := next.Next(slot - 1)
			if na != cell.None && na >= end {
				na = cell.None // beyond the horizon: never fed
			}
			nf := pps.NextFaultSlot()
			if na != slot && nf != slot {
				until := opts.MaxSlots
				if end < until {
					until = end
				}
				if na != cell.None && na < until {
					until = na
				}
				if nf != cell.None && nf < until {
					until = nf
				}
				if d.probing {
					sampleIdleSpan(opts.Probes, d.view, slot, until)
				}
				if opts.OnFastForward != nil {
					opts.OnFastForward(slot, until)
				}
				slot = until - 1 // loop post-increment resumes at until
				continue
			}
		}
		cells := d.cellsBuf[:0]
		if slot < end {
			if cells, err = d.feedSlot(slot); err != nil {
				return slot, err
			}
		}
		if event {
			d.deps, err = pps.EventStep(slot, cells, d.deps[:0])
		} else {
			d.deps, err = sw.Step(slot, cells, d.deps[:0])
		}
		if err != nil {
			return slot, err
		}
		d.recordShadow(cells)
		d.recordDepartures()
		if d.probing {
			d.sampleSlot(slot)
		}
		if d.tel != nil {
			d.tel.Tick(int64(slot), sw.Backlog(), d.rec.Matched(), d.rec.Drops(), d.rec.AdmittedTotal(), d.rec.RejectedTotal(), d.rec.ExpiredTotal())
			if executed%telemetryFlushStride == 0 {
				d.tel.ObserveDelays(d.rec.Delays(), d.telPrev)
			}
			executed++
		}
	}
	return slot, nil
}

// Drive is Run against an existing switch under test: a PPS (so callers can
// inspect internals afterwards) or a baseline. A PPS must be fresh (slot -1):
// per-run accounting (output utilization windows, peak queues, dispatch
// counters) is cumulative, so driving a fabric twice would silently blend the
// runs; Drive rejects a used fabric instead. The fabric applies Faults,
// FaultPolicy and Workers from its own config, so a PPS must have been built
// with the values opts sets.
func Drive(sw Switch, src traffic.Source, opts Options) (res Result, err error) {
	pps, _ := sw.(*fabric.PPS)
	if pps != nil && pps.CurrentSlot() != -1 {
		return Result{}, fmt.Errorf("harness: fabric already driven through slot %d; build a fresh PPS per run", pps.CurrentSlot())
	}
	if name := unhonoured(pps, &opts); name != "" {
		return Result{}, fmt.Errorf("harness: a %T under test cannot honour Options.%s (Probes and Tracer need a PPS; Faults, FaultPolicy and Workers must be what the PPS was built with)", sw, name)
	}
	n := sw.Ports()
	if opts.MaxSlots <= 0 {
		opts.MaxSlots = 1 << 22
	}
	end := src.End()
	if end == cell.None {
		if opts.Horizon <= 0 {
			return Result{}, fmt.Errorf("harness: unbounded source needs an explicit Horizon")
		}
		end = opts.Horizon
	} else if opts.Horizon > 0 && opts.Horizon < end {
		end = opts.Horizon
	}

	if pps != nil {
		if opts.Tracer != nil {
			pps.SetTracer(opts.Tracer)
		}
		// The fabric's worker pool (if any) outlives the run only to leak
		// goroutines; a driven fabric can never be driven again, so close it.
		// Close keeps the fabric inspectable and serially steppable.
		defer pps.Close()
	}
	// The recorder keys its per-flow records by the stamper's flow index, so
	// the run keeps one (In, Out) → FlowID index.
	st := cell.NewStamperSized(n)
	d := &driver{
		sw:     sw,
		pps:    pps,
		sh:     shadow.NewOracle(n),
		shLast: cell.None,
		opts:   &opts,
		end:    end,
		st:     st,
		rec:    metrics.NewRecorderOn(st.Flows(), n),
		// A slot brings at most n arrivals and n departures; the buffers
		// start at the ports a run touches (cell.StartCap).
		deps:     make([]cell.Cell, 0, cell.StartCap(n)),
		cellsBuf: make([]cell.Cell, 0, cell.StartCap(n)),
	}
	if opts.Validate {
		d.vd = traffic.NewValidator(n)
	}
	if err := opts.Admission.Validate(); err != nil {
		return Result{}, err
	}
	if !opts.Admission.Empty() {
		d.adm = admission.NewRuntime(opts.Admission, n)
	}
	d.probing = len(opts.Probes) > 0
	if d.probing {
		d.view = &slotView{pps: pps, sh: d.sh, rec: d.rec}
	}

	// Live telemetry: explicit Options.Telemetry wins, else the process
	// global. Per-slot ticks are atomic stores; the delay histograms are
	// delta-flushed every telemetryFlushStride slots and once at the end —
	// of a failed run too, whose tail samples would otherwise be lost — so
	// the steady-state slot path stays lock- and allocation-free.
	d.tel = opts.Telemetry
	if d.tel == nil {
		d.tel = obs.GlobalTelemetry()
	}
	if d.tel != nil {
		d.telPrev = obs.NewDelaySet()
		d.tel.RunStarted()
		defer func() {
			d.tel.ObserveDelays(d.rec.Delays(), d.telPrev)
			rep := &res.Report
			d.tel.RunFinished(err == nil, int64(res.Slots), rep.Cells, res.Drops,
				rep.Rejected, rep.ExpiredAdmit+rep.ExpiredReseq, res.TraceEvents, res.PeakPlaneQueue)
		}()
	}

	// The span feed serves both cores' arrival phase, and whether it reads
	// ahead is the source's half of engine eligibility (selectEngine). It
	// ends at MaxSlots too: no run reads a slot past the cap, and a feed
	// that did would walk a hostile trace's silent spans up to its first
	// far-off arrival before the cap could stop the run.
	d.feed = traffic.NewSpanFeed(src, min(end, opts.MaxSlots))
	eng, reason := selectEngine(pps, src, d.feed, opts)
	slot, err := d.run(eng == EngineEvent)
	if err != nil {
		return Result{}, err
	}
	if d.tel != nil {
		d.tel.Tick(int64(slot), sw.Backlog(), d.rec.Matched(), d.rec.Drops(), d.rec.AdmittedTotal(), d.rec.RejectedTotal(), d.rec.ExpiredTotal())
	}
	if !sw.Drained() || !d.shadowDrained(slot) {
		return Result{}, fmt.Errorf("harness: not drained after %d slots (switch backlog %d, shadow backlog %d)",
			slot, sw.Backlog(), d.sh.Backlog(slot-1))
	}
	if slot < end {
		return Result{}, fmt.Errorf("harness: MaxSlots %d reached before the horizon %d: the run would be truncated (raise Options.MaxSlots)",
			opts.MaxSlots, end)
	}
	if d.probing && slot > 0 {
		// Final-slot flush: stride decimation would otherwise drop the last
		// executed slot (slot-1, whose state the view still holds), leaving
		// decimated series ending on pre-drain values. Force one sample per
		// series; slots already recorded are only marked Final, not
		// duplicated.
		for _, pb := range opts.Probes {
			for _, s := range pb.Series() {
				s.ForceNext()
			}
			pb.Sample(d.view)
		}
	}

	res = Result{
		Report:       d.rec.Report(),
		Slots:        slot,
		TraceEvents:  opts.Tracer.Events(),
		Engine:       eng.String(),
		EngineReason: reason,
	}
	res.Drops = res.Report.Drops
	res.OnTimeFraction = res.Report.OnTimeFraction
	if slot > 0 {
		res.Goodput = float64(res.Report.Cells) / float64(slot)
	}
	if d.vd != nil {
		res.Burstiness = d.vd.Burstiness()
	}
	if pps != nil {
		res.PeakPlaneQueue = pps.PeakPlaneQueue()
		res.AlgorithmName = pps.Algorithm().Name()
		res.Workers, res.ShardPorts = pps.Workers(), pps.ShardPorts()
		res.Utilization = make([]float64, n)
		for j := range res.Utilization {
			res.Utilization[j] = pps.Output(cell.Port(j)).Utilization()
		}
	}
	if d.probing {
		res.Series = obs.CollectSeries(opts.Probes)
	}
	return res, nil
}

// unhonoured names the first option opts sets that the switch under test
// cannot honour, or returns "": Probes and Tracer need a PPS, and a PPS
// applies Faults, FaultPolicy and Workers from its own config, so those must
// be the values it was built with (a baseline has none).
func unhonoured(pps *fabric.PPS, o *Options) string {
	var cfg fabric.Config
	if pps != nil {
		cfg = pps.Config()
	}
	switch {
	case pps == nil && len(o.Probes) > 0:
		return "Probes"
	case pps == nil && o.Tracer != nil:
		return "Tracer"
	case o.Faults != nil && o.Faults != cfg.Faults:
		return "Faults"
	case o.FaultPolicy != faults.Abort && o.FaultPolicy != cfg.FaultPolicy:
		return "FaultPolicy"
	case o.Workers != 0 && o.Workers != cfg.Workers:
		return "Workers"
	}
	return ""
}

// sampleIdleSpan replays probe sampling for the elided slots [from, to) of an
// idle jump. No cell departs inside an idle span, so the view's front-RQD is
// cleared once for the whole span, and the view is left on the last elided
// slot — exactly the state the stepped loop would leave behind. Probes read
// the view once for the whole span, so it is moved onto the span first: both
// switches are empty from there on.
func sampleIdleSpan(probes []*obs.Probe, view *slotView, from, to cell.Time) {
	view.slot = from
	view.rqd, view.rqdOK = 0, false
	for _, pb := range probes {
		pb.SampleIdleSpan(view, from, to)
	}
	view.slot = to - 1
}

// String renders the full result as a small multi-line report, so CLIs and
// examples share one format instead of hand-formatting fields.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "algorithm=%s slots=%d peakPlaneQueue=%d", r.AlgorithmName, r.Slots, r.PeakPlaneQueue)
	if r.Burstiness > 0 {
		fmt.Fprintf(&b, " B=%d", r.Burstiness)
	}
	fmt.Fprintf(&b, "\n%s", r.Report)
	fmt.Fprintf(&b, "\nstage wait mean/max: input %.2f/%d plane %.2f/%d output %.2f/%d",
		r.Report.MeanInputWait, r.Report.MaxInputWait,
		r.Report.MeanPlaneWait, r.Report.MaxPlaneWait,
		r.Report.MeanOutputWait, r.Report.MaxOutputWait)
	if q := r.Report.Percentiles; q.RQD.N > 0 {
		fmt.Fprintf(&b, "\nrqd p50/p99/p999: %d/%d/%d  interdep gap p99: %d",
			q.RQD.P50, q.RQD.P99, q.RQD.P999, q.Gap.P99)
		fmt.Fprintf(&b, "\ntail p99 demux/plane/reseq: %d/%d/%d",
			q.Demux.P99, q.Plane.P99, q.Reseq.P99)
	}
	if len(r.Utilization) > 0 {
		min, mean, active := 1.0, 0.0, 0
		for _, u := range r.Utilization {
			if u == 0 {
				continue
			}
			active++
			mean += u
			if u < min {
				min = u
			}
		}
		if active > 0 {
			fmt.Fprintf(&b, "\nutilization: active=%d mean=%.4f min=%.4f", active, mean/float64(active), min)
		}
	}
	if len(r.Series) > 0 {
		pts := 0
		for _, s := range r.Series {
			pts += s.Len()
		}
		fmt.Fprintf(&b, "\nseries: %d (%d points)", len(r.Series), pts)
	}
	if rep := r.Report; rep.Rejected > 0 || rep.ExpiredAdmit > 0 || rep.ExpiredReseq > 0 {
		fmt.Fprintf(&b, "\nadmission: offered=%d admitted=%d rejected=%d expired=%d goodput=%.4f onTime=%.3f",
			rep.Offered, rep.Admitted, rep.Rejected, rep.ExpiredAdmit+rep.ExpiredReseq, r.Goodput, r.OnTimeFraction)
	}
	if r.TraceEvents > 0 {
		fmt.Fprintf(&b, "\ntrace events: %d", r.TraceEvents)
	}
	return b.String()
}
