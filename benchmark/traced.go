package main

import (
	"fmt"
	"time"

	"ppsim"
	"ppsim/internal/admission"
	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/metrics"
	"ppsim/internal/shadow"
	"ppsim/internal/traffic"
)

// The traced driver is a replica of harness.Drive's loop that calls the same
// exported functions in the same order, with one clock read at each layer
// boundary: the end of one phase is the start of the next. It exists so the
// layers can be timed from outside, without touching them.

// layer indexes the modules a slot passes through, in slot order.
type layer int

const (
	lyTraffic layer = iota
	lyAdmission
	lyCell
	lyFabric
	lyMetrics
	lyShadow
	lyHarness // the chunk remainder: loop control, quiescence checks, clock reads
	numLayers
)

var layerNames = [numLayers]string{"traffic", "admission", "cell", "fabric", "metrics", "shadow", "harness"}

// chunkSlots is how many executed slots one parent span covers.
const chunkSlots = 1024

// kernelCells bounds the admitted-stream prefix the traced pass records for
// the layer kernels: long enough to reach steady state, short enough that
// the recording neither dominates the traced run's memory nor its time.
const kernelCells = 1 << 18

// span is one trace record. A chunk span (Parent 0) covers up to chunkSlots
// executed slots; its children, one per layer, carry what that layer did
// inside the chunk. BusyNS is the time the layer's code ran; BlockingNS is
// the part of it the driving goroutine waited for (they differ only for the
// shadow switch when it steps on its own goroutine). A layer's self time is
// its BusyNS; the harness child is the chunk's remainder, so the children's
// BlockingNS add up to the chunk's EndNS − StartNS exactly.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	BusyNS     int64  `json:"busy_ns"`
	BlockingNS int64  `json:"blocking_ns"`
	Calls      int64  `json:"calls"`
	// Chunk spans only.
	FirstSlot int64 `json:"first_slot,omitempty"`
	LastSlot  int64 `json:"last_slot,omitempty"`
	Executed  int64 `json:"slots_executed,omitempty"`
	Elided    int64 `json:"slots_elided,omitempty"`
}

// layerTotals accumulates one layer over a whole traced run.
type layerTotals struct {
	BusyNS, BlockingNS, Calls int64
}

// trace is what one traced run of one part produced.
type trace struct {
	Part     string `json:"part"`
	Spans    []span `json:"spans"`
	WallNS   int64  `json:"wall_ns"`
	Executed int64  `json:"slots_executed"`
	Elided   int64  `json:"slots_elided"`
	Offered  uint64 `json:"offered_cells"`
	Admitted uint64 `json:"admitted_cells"`
	Rejected uint64 `json:"rejected_cells"`
	Expired  uint64 `json:"expired_cells"`

	totals [numLayers]layerTotals
	sim    simulated
	// stream is the recorded prefix of the admitted cell stream, indexed by
	// Seq, with every stage stamp set; shadowDep the shadow departure slots.
	// complete is false when a prefix cell was dropped or expired at egress,
	// which the kernels' replay does not model.
	stream    []cell.Cell
	shadowDep []cell.Time
	complete  bool
}

// algorithmFactory mirrors ppsim.Algorithm's unexported lowering, which a
// package outside ppsim cannot reach; the replica-fidelity test fails if the
// two ever disagree.
func algorithmFactory(a ppsim.Algorithm) (func(demux.Env) (demux.Algorithm, error), error) {
	var base func(demux.Env) (demux.Algorithm, error)
	switch a.Name {
	case "rr":
		base = func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerInput) }
	case "perflow-rr":
		base = func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerFlow) }
	case "partition":
		base = func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaticPartition(e, a.D) }
	case "random":
		base = func(e demux.Env) (demux.Algorithm, error) { return demux.NewRandom(e, a.Seed) }
	case "cpa":
		base = func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.MinAvail) }
	case "cpa-rotate":
		base = func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.RotateTie) }
	case "cpa-sets":
		base = func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPASets(e) }
	case "stale-cpa":
		base = func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPA(e, a.U) }
	case "stale-cpa-randtie":
		base = func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPARandomTie(e, a.U, a.Seed) }
	case "buffered-cpa":
		base = func(e demux.Env) (demux.Algorithm, error) { return demux.NewBufferedCPA(e, a.U, demux.MinAvail) }
	case "buffered-rr":
		base = func(e demux.Env) (demux.Algorithm, error) { return demux.NewBufferedRR(e, a.Capacity) }
	case "ftd":
		base = func(e demux.Env) (demux.Algorithm, error) { return demux.NewFTD(e, a.H) }
	case "least-loaded":
		base = func(e demux.Env) (demux.Algorithm, error) { return demux.NewLocalLeastLoaded(e) }
	default:
		return nil, fmt.Errorf("benchmark: no factory for algorithm %q", a.Name)
	}
	if a.FaultAware {
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewFaultAware(e, base) }, nil
	}
	return base, nil
}

// fabricConfig mirrors ppsim.Config's lowering plus harness.Run's option
// forwarding, for the fields the workloads set.
func fabricConfig(p part) fabric.Config {
	return fabric.Config{
		N: p.cfg.N, K: p.cfg.K, RPrime: p.cfg.RPrime, BufferCap: p.cfg.BufferCap,
		CheckInvariants: !p.cfg.DisableChecks,
		Workers:         p.opts.Workers, Faults: p.opts.Faults, FaultPolicy: p.opts.FaultPolicy,
	}
}

// tracedDriver is the per-run state of the replica loop.
type tracedDriver struct {
	pps  *fabric.PPS
	sh   *shadow.Switch
	st   *cell.Stamper
	rec  *metrics.Recorder
	vd   *traffic.Validator
	adm  *admission.Runtime
	feed *traffic.SpanFeed
	end  cell.Time
	max  cell.Time

	cells, deps, shDeps []cell.Cell
	admitted            []traffic.Arrival

	tr *trace
	// base anchors the monotonic clock; mark is the last boundary read.
	base time.Time
	mark int64
	// Current chunk accumulators.
	cur        [numLayers]layerTotals
	chunkStart int64
	chunkFirst cell.Time
	chunkExec  int64
	chunkElide int64
}

// lap reads the clock once, charges the time since the previous boundary to
// layer l as both busy and blocking time, counts its calls, and returns the
// interval.
func (d *tracedDriver) lap(l layer, calls int) int64 {
	now := int64(time.Since(d.base))
	dt := now - d.mark
	d.mark = now
	d.cur[l].BusyNS += dt
	d.cur[l].BlockingNS += dt
	d.cur[l].Calls += int64(calls)
	return dt
}

// closeChunk emits the parent span and its per-layer children. Everything
// between boundaries that no layer claimed is the harness's own.
func (d *tracedDriver) closeChunk(last cell.Time) {
	now := int64(time.Since(d.base))
	claimed := int64(0)
	for l := lyTraffic; l < lyHarness; l++ {
		claimed += d.cur[l].BlockingNS
	}
	rest := now - d.chunkStart - claimed
	d.cur[lyHarness] = layerTotals{BusyNS: rest, BlockingNS: rest, Calls: d.chunkExec}
	parent := len(d.tr.Spans) + 1
	d.tr.Spans = append(d.tr.Spans, span{
		ID: parent, Name: "chunk", StartNS: d.chunkStart, EndNS: now,
		BusyNS: now - d.chunkStart, BlockingNS: now - d.chunkStart, Calls: d.chunkExec,
		FirstSlot: int64(d.chunkFirst), LastSlot: int64(last), Executed: d.chunkExec, Elided: d.chunkElide,
	})
	for l := lyTraffic; l < numLayers; l++ {
		c := d.cur[l]
		d.tr.Spans = append(d.tr.Spans, span{
			ID: len(d.tr.Spans) + 1, Parent: parent, Name: layerNames[l],
			StartNS: d.chunkStart, EndNS: now, BusyNS: c.BusyNS, BlockingNS: c.BlockingNS, Calls: c.Calls,
		})
		d.tr.totals[l].BusyNS += c.BusyNS
		d.tr.totals[l].BlockingNS += c.BlockingNS
		d.tr.totals[l].Calls += c.Calls
	}
	d.tr.Executed += d.chunkExec
	d.tr.Elided += d.chunkElide
	d.cur = [numLayers]layerTotals{}
	d.chunkStart, d.chunkFirst, d.chunkExec, d.chunkElide = now, last+1, 0, 0
	// The bookkeeping above belongs to the next chunk's harness remainder.
	d.mark = now
}

// feedSlot is harness.feedSlot with the same call order per package, split
// into phases so each layer gets one contiguous interval: read (traffic),
// decide (admission), stamp (cell).
func (d *tracedDriver) feedSlot(t cell.Time) error {
	arrs := d.feed.SlotArrivals(t)
	if d.vd != nil {
		if err := d.vd.Observe(t, arrs); err != nil {
			return err
		}
	}
	d.lap(lyTraffic, 1)
	if d.adm != nil {
		kept := d.admitted[:0]
		for _, a := range arrs {
			d.rec.OfferCell()
			if d.adm.Expired(t, a.Deadline) {
				d.rec.ExpireAtAdmission()
				continue
			}
			if !d.adm.Admit(t, a.In) {
				d.rec.RejectCell(a.In)
				continue
			}
			d.rec.AdmitCell()
			kept = append(kept, a)
		}
		d.admitted = kept
		d.lap(lyAdmission, len(arrs))
		arrs = kept
	} else {
		for range arrs {
			d.rec.OfferCell()
			d.rec.AdmitCell()
		}
	}
	cells := d.cells[:0]
	for _, a := range arrs {
		c := d.st.Stamp(cell.Flow{In: a.In, Out: a.Out}, t)
		c.Deadline = a.Deadline
		cells = append(cells, c)
	}
	d.cells = cells
	d.lap(lyCell, len(cells))
	return nil
}

// recordDepartures is harness.recordDepartures plus the kernel recording.
func (d *tracedDriver) recordDepartures() {
	for _, c := range d.deps {
		expired := d.adm != nil && d.adm.Expired(c.Depart, c.Deadline)
		if c.Seq < kernelCells {
			if expired {
				d.tr.complete = false
			}
			d.tr.stream = growCells(d.tr.stream, c.Seq)
			d.tr.stream[c.Seq] = c
		}
		if expired {
			d.rec.PPSExpired(c)
			continue
		}
		d.rec.PPSDepart(c)
		if c.Deadline == 0 || c.Depart <= c.Deadline {
			d.rec.OnTimeCell()
		}
	}
	for _, c := range d.pps.SlotDrops() {
		if c.Seq < kernelCells {
			d.tr.complete = false
		}
		d.rec.PPSDrop(c)
	}
}

func (d *tracedDriver) recordShadow() {
	for _, c := range d.shDeps {
		if c.Seq < kernelCells {
			for uint64(len(d.tr.shadowDep)) <= c.Seq {
				d.tr.shadowDep = append(d.tr.shadowDep, cell.None)
			}
			d.tr.shadowDep[c.Seq] = c.Depart
		}
		d.rec.ShadowDepart(c)
	}
}

func growCells(s []cell.Cell, idx uint64) []cell.Cell {
	for uint64(len(s)) <= idx {
		s = append(s, cell.Cell{Depart: cell.None})
	}
	return s
}

// executed closes the slot's accounting and the chunk when it is full.
func (d *tracedDriver) executed(slot cell.Time) {
	d.chunkExec++
	if d.chunkExec == chunkSlots {
		d.closeChunk(slot)
	}
}

// runEvent replicates harness.runEvent: fabric.EventStep while anything is
// in flight, one jump to the next arrival, fault or horizon when quiet.
func (d *tracedDriver) runEvent() (cell.Time, error) {
	feed := traffic.NewEventFeed(d.feed.Look())
	var err error
	slot := cell.Time(0)
	for ; slot < d.max; slot++ {
		if slot >= d.end && d.pps.Drained() && d.sh.Drained() {
			break
		}
		if d.pps.Backlog() == 0 && d.sh.Drained() {
			d.lap(lyHarness, 0)
			na := feed.Next(slot - 1)
			d.lap(lyTraffic, 1)
			if na != cell.None && na >= d.end {
				na = cell.None
			}
			nf := d.pps.NextFaultSlot()
			if na != slot && nf != slot {
				until := d.max
				if d.end < until {
					until = d.end
				}
				if na != cell.None && na < until {
					until = na
				}
				if nf != cell.None && nf < until {
					until = nf
				}
				d.chunkElide += int64(until - slot)
				slot = until - 1
				continue
			}
		}
		d.lap(lyHarness, 0)
		d.cells = d.cells[:0]
		if slot < d.end {
			if err = d.feedSlot(slot); err != nil {
				return slot, err
			}
		}
		d.deps, err = d.pps.EventStep(slot, d.cells, d.deps[:0])
		if err != nil {
			return slot, err
		}
		d.lap(lyFabric, 1)
		d.recordDepartures()
		d.lap(lyMetrics, len(d.deps))
		d.shDeps = d.sh.Step(slot, d.cells, d.shDeps[:0])
		d.lap(lyShadow, 1)
		d.recordShadow()
		d.lap(lyMetrics, len(d.shDeps))
		d.executed(slot)
	}
	return slot, nil
}

// shadowJob is one slot handed to the overlapped shadow goroutine, and
// shadowDone what it hands back: its departures and how long Step ran.
type shadowJob struct {
	t     cell.Time
	cells []cell.Cell
}
type shadowDone struct {
	deps []cell.Cell
	busy int64
}

// runStepped replicates harness.runStepped without elision (no declared
// regime uses the fast-forward core): every slot executes through
// fabric.Step, and with workers the shadow switch steps on its own
// goroutine while the fabric steps on this one.
func (d *tracedDriver) runStepped(overlap bool) (cell.Time, error) {
	var in chan shadowJob
	var out chan shadowDone
	if overlap {
		in, out = make(chan shadowJob, 1), make(chan shadowDone, 1)
		go func() {
			var deps []cell.Cell
			for job := range in {
				t0 := time.Now()
				deps = d.sh.Step(job.t, job.cells, deps[:0])
				out <- shadowDone{deps: deps, busy: int64(time.Since(t0))}
			}
		}()
		defer close(in)
	}
	var err error
	slot := cell.Time(0)
	for ; slot < d.max; slot++ {
		if slot >= d.end && d.pps.Drained() && d.sh.Drained() {
			break
		}
		d.lap(lyHarness, 0)
		d.cells = d.cells[:0]
		if slot < d.end {
			if err = d.feedSlot(slot); err != nil {
				return slot, err
			}
		}
		if overlap {
			in <- shadowJob{t: slot, cells: d.cells}
		}
		d.deps, err = d.pps.Step(slot, d.cells, d.deps[:0])
		if err != nil {
			if overlap {
				<-out // let the shadow goroutine finish its slot before teardown
			}
			return slot, err
		}
		d.lap(lyFabric, 1)
		d.recordDepartures()
		d.lap(lyMetrics, len(d.deps))
		if overlap {
			done := <-out
			d.shDeps = done.deps
			// lap charged the wait for the goroutine; the layer's busy time
			// is how long its Step ran over there.
			d.cur[lyShadow].BusyNS += done.busy - d.lap(lyShadow, 1)
		} else {
			d.shDeps = d.sh.Step(slot, d.cells, d.shDeps[:0])
			d.lap(lyShadow, 1)
		}
		d.recordShadow()
		d.lap(lyMetrics, len(d.shDeps))
		d.executed(slot)
	}
	return slot, nil
}

// runTraced drives one part through the replica loop and returns its trace.
// Construction is inside the traced wall (as it is inside ppsim.Run) under
// its own top-level "setup" span, so the chunks cover the slot loop only.
func runTraced(p part) (*trace, error) {
	factory, err := algorithmFactory(p.cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	tr := &trace{Part: p.label, complete: true}
	d := &tracedDriver{tr: tr, base: time.Now(), max: p.opts.MaxSlots}
	src, err := p.newSrc()
	if err != nil {
		return nil, err
	}
	pps, err := fabric.New(fabricConfig(p), factory)
	if err != nil {
		return nil, err
	}
	defer pps.Close()
	n := p.cfg.N
	d.pps, d.sh, d.st, d.rec = pps, shadow.New(n), cell.NewStamperSized(n), metrics.NewRecorderSized(n)
	if p.opts.Validate {
		d.vd = traffic.NewValidator(n)
	}
	if err := p.opts.Admission.Validate(); err != nil {
		return nil, err
	}
	if !p.opts.Admission.Empty() {
		d.adm = admission.NewRuntime(p.opts.Admission, n)
	}
	if d.max <= 0 {
		d.max = 1 << 22
	}
	d.end = src.End()
	switch {
	case d.end == cell.None && p.opts.Horizon <= 0:
		return nil, fmt.Errorf("benchmark: unbounded source needs an explicit Horizon")
	case d.end == cell.None || (p.opts.Horizon > 0 && p.opts.Horizon < d.end):
		d.end = p.opts.Horizon
	}
	d.feed = traffic.NewSpanFeed(src, d.end)
	d.mark = int64(time.Since(d.base))
	d.chunkStart = d.mark
	tr.Spans = append(tr.Spans, span{ID: 1, Name: "setup", EndNS: d.mark, BusyNS: d.mark, BlockingNS: d.mark, Calls: 1})

	var slot cell.Time
	switch p.engine {
	case "event":
		slot, err = d.runEvent()
	case "stepped":
		slot, err = d.runStepped(p.opts.Workers != 0)
	default:
		err = fmt.Errorf("benchmark: no traced driver for engine %q", p.engine)
	}
	if err != nil {
		return nil, err
	}
	if !pps.Drained() || !d.sh.Drained() {
		return nil, fmt.Errorf("benchmark: not drained after %d slots (pps backlog %d, shadow backlog %d)", slot, pps.Backlog(), d.sh.Backlog())
	}
	d.lap(lyHarness, 0)
	rep := d.rec.Report()
	d.lap(lyMetrics, 1)
	d.closeChunk(slot - 1)
	tr.WallNS = int64(time.Since(d.base))
	tr.sim = simulated{Report: rep, Slots: slot, Drops: rep.Drops, PeakPlaneQueue: pps.PeakPlaneQueue()}
	tr.Offered, tr.Admitted, tr.Rejected = rep.Offered, rep.Admitted, rep.Rejected
	tr.Expired = rep.ExpiredAdmit + rep.ExpiredReseq
	if uint64(len(tr.stream)) != min(rep.Admitted, kernelCells) || len(tr.shadowDep) != len(tr.stream) {
		tr.complete = false
	}
	return tr, nil
}
