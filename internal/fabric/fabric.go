// Package fabric assembles the parallel packet switch of Section 2 of the
// paper: N demultiplexors (one per input-port), K center-stage planes, and N
// multiplexors (one per output-port), wired by rate-r internal lines in both
// directions (a three-stage Clos network, Figure 1).
//
// The fabric is the referee of every experiment: it executes the
// demultiplexing algorithm's decisions and *verifies* them against the
// formal model — the input constraint and output constraint on the internal
// lines, at most one arrival per input per slot, no cell drops, per-flow
// order preservation at departure, and cell conservation across the stages.
// An algorithm that cheats produces an error, not a better number.
package fabric

import (
	"fmt"
	"math/bits"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/faults"
	"ppsim/internal/mux"
	"ppsim/internal/obs"
	"ppsim/internal/plane"
	"ppsim/internal/queue"
	"ppsim/internal/timing"
)

// Config describes the PPS geometry.
type Config struct {
	// N is the number of external input- and output-ports.
	N int
	// K is the number of center-stage planes, at most demux.MaxPlanes (64).
	// The paper's premise is K < N planes running slower than the external
	// line; K >= N is legal hardware and accepted here (useful for speedup
	// sweeps), but it is outside the model the lower bounds are proved for —
	// interpret RQD figures at K >= N accordingly.
	K int
	// RPrime is r' = R/r: the slots an internal line is occupied per cell.
	// The speedup is S = K*r/R = K/RPrime.
	RPrime int64
	// BufferCap bounds each input-port buffer: 0 means a bufferless PPS
	// (every arrival must be dispatched in its arrival slot), a positive
	// value bounds the buffered variant, and -1 means unbounded buffers.
	BufferCap int
	// CheckInvariants enables per-slot conservation auditing (O(N+K) per
	// slot; cheap enough to default on in experiments).
	CheckInvariants bool
	// Workers selects the stage-parallel slot engine: 0 runs every stage
	// serially (the historical engine), a positive value shards the
	// per-input audit and per-output mux stages across that many
	// persistent workers, and -1 picks a shard count from GOMAXPROCS and
	// N (see ResolveWorkers). Any worker count produces bit-identical
	// results to the serial engine.
	Workers int
	// Faults is the plane fail/recover schedule applied at the start of
	// each slot; nil (or an empty schedule) injects nothing.
	Faults *faults.Schedule
	// FaultPolicy decides what a dispatch into a failed plane means:
	// faults.Abort (default) keeps the model's no-drop semantics and
	// errors; faults.DropCount converts the loss into accounted drops.
	FaultPolicy faults.Policy
}

// Speedup returns S = K / r'.
func (c Config) Speedup() float64 { return float64(c.K) / float64(c.RPrime) }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("fabric: N must be positive, got %d", c.N)
	}
	if c.K <= 0 {
		return fmt.Errorf("fabric: K must be positive, got %d", c.K)
	}
	if c.K > demux.MaxPlanes {
		return fmt.Errorf("fabric: K must be at most %d planes (plane sets are one-word bitmasks), got %d", demux.MaxPlanes, c.K)
	}
	if c.RPrime < 1 {
		return fmt.Errorf("fabric: r' must be >= 1, got %d", c.RPrime)
	}
	if c.BufferCap < -1 {
		return fmt.Errorf("fabric: BufferCap must be -1, 0 or positive, got %d", c.BufferCap)
	}
	if c.Workers < -1 {
		return fmt.Errorf("fabric: Workers must be -1 (auto), 0 (serial) or positive, got %d", c.Workers)
	}
	if c.FaultPolicy != faults.Abort && c.FaultPolicy != faults.DropCount {
		return fmt.Errorf("fabric: unknown fault policy %v", c.FaultPolicy)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(c.K); err != nil {
			return fmt.Errorf("fabric: %w", err)
		}
		if c.Faults.HasLoss() && c.FaultPolicy != faults.DropCount {
			return fmt.Errorf("fabric: cell-loss injection requires FaultPolicy DropCount (Abort forbids drops)")
		}
	}
	return nil
}

// PPS is one parallel packet switch instance.
type PPS struct {
	cfg    Config
	alg    demux.Algorithm
	planes []*plane.Plane
	// store is the shared columnar cell arena (DESIGN.md §13): cell bodies
	// live in per-shard contiguous slabs and the plane queues and output
	// resequencers hold 32-bit refs into it. A cell is allocated into the
	// shard that owns its output-port (outShard), because every Free site —
	// departure at the output, fault drain — runs either in a serial phase
	// of Step or on the goroutine driving that output's mux shard; the
	// stage barrier orders the two, so the store needs no atomics.
	store    *cell.Store
	outShard []int32
	inGates  *timing.Matrix // N x K
	outGates *timing.Matrix // K x N
	outputs  []mux.Output   // one slab, output j at index j
	// pviews are the persistent per-output planeView adapters. Passing a
	// value-type view would box it into the mux.PlaneView interface — one
	// heap allocation per output per slot; pointers into this slice convert
	// for free.
	pviews []planeView
	log    demux.Log
	// logArmed is set the first time the global event log is requested
	// (by a u-RT algorithm through its Env, or by a diagnostic caller via
	// Log). An unrequested log records nothing: the append stream is pure
	// overhead when no reader exists, and fully-distributed algorithms are
	// forbidden from reading it anyway. An armed log is bounded by its
	// slowest registered cursor: it drops the events every cursor has read.
	logArmed bool

	// pendingPerIn counts arrived-but-undispatched cells per input; the
	// fabric cross-checks it against the algorithm's Buffered reports.
	pendingPerIn []int
	pendingTotal int

	// seenStamp[i] == current slot marks input i as having received its
	// cell this slot (allocation-free duplicate-arrival check).
	seenStamp []cell.Time

	arrived  uint64
	departed uint64
	lastSlot cell.Time

	// dispatchedPerPlane and pullsPerOut are cumulative per-stage traffic
	// counters exposed to the per-slot probes (internal/obs).
	dispatchedPerPlane []uint64
	pullsPerOut        []int64

	// tracer receives structured events; trace caches tracer.Enabled() so
	// the disabled hot path is a single predictable branch per site.
	tracer *obs.Tracer
	trace  bool

	// lastFlowSeq is the order referee's per-flow record, indexed by
	// FlowID-1: 0 = flow unseen, else the last departed FlowSeq + 1.
	// flowNext is the output resequencers' shared cursor column
	// (mux.NewOutputs), indexed the same way: each flow's next FlowSeq and
	// its ring of parked cells. Stage 1 of slot grows both to cover every
	// arrival's FlowID before any shard runs, so they hold one word per
	// flow the run carries, and a flow — which departs only at its own
	// output — has its entries written by exactly one mux shard, in pages
	// that never move.
	lastFlowSeq cell.Column[uint64]
	flowNext    cell.Column[mux.Cursor]

	// faults applies the configured schedule; nil when the schedule is
	// empty, so fault-free runs pay nothing.
	faults *faults.Runtime
	// dropped counts cells lost under the DropCount policy; slotDrops
	// lists the current slot's losses for the harness's drop accounting
	// (reset at the top of every slot, capacity reused).
	dropped   uint64
	slotDrops []cell.Cell
	// failScratch is the reusable buffer FailDrop drains a dying plane's
	// backlog into.
	failScratch []cell.Cell
	// dropGaps, allocated only under DropCount, holds per store shard the
	// (FlowID, FlowSeq) keys of its outputs' dropped cells so checkFlowOrder
	// can verify that a departure gap is exactly the flow's accounted drops
	// — the referee's own record, not the resequencer's. Written in the
	// serial phases (slot start, dispatch), consumed by the shard's mux
	// goroutine after the stage barrier. Keyed by flow, not by (In, FlowSeq),
	// which two outputs of one shard can each drop.
	dropGaps []queue.SeqTable

	// pool is the stage-parallel worker pool, nil for the serial engine.
	pool *workerPool

	// cellsInPlanes and cellsInOutputs incrementally mirror the structural
	// sums a full audit computes; together with pendingTotal they make
	// Backlog O(1). A full audit cross-checks them against the structures.
	cellsInPlanes  int
	cellsInOutputs int
	// planeMask[j] has bit k set exactly when plane k's queue for output j
	// is non-empty (Validate caps K at 64). dispatch sets the bit, and the
	// pop that empties the queue — run by the goroutine driving output j —
	// or a DropCount plane failure clears it. Eligible walks only the set
	// bits, so the pull scan costs the planes holding cells for the output
	// instead of all K, and the per-output busy predicate the event engine
	// consults every slot is one word test.
	planeMask []uint64

	// busy is the two-level bitmap of outputs that hold work (cells queued
	// in a plane or buffered in the resequencer): bit j&63 of busy[j>>6]
	// marks output j, and bit w&63 of busySum[w>>6] a non-zero leaf word w.
	// Dispatch sets both bits; the serial mux stage (sweepBusy) walks the
	// set bits in ascending output order and clears drained outputs. The
	// sharded mux stage steps every output and leaves the set alone, so
	// under it the set is a superset.
	busy    []uint64
	busySum []uint64

	// pendingList is the working set of inputs holding arrived-but-
	// undispatched cells, with pendingIdx[i] its position (-1 when absent).
	// Without full, slot audits only these inputs plus the arrival inputs.
	pendingList []cell.Port
	pendingIdx  []int32
}

// New builds a PPS and constructs its demultiplexing algorithm via makeAlg,
// which receives the fabric's demux.Env.
func New(cfg Config, makeAlg func(demux.Env) (demux.Algorithm, error)) (*PPS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &PPS{
		cfg:                cfg,
		inGates:            timing.NewMatrix(cfg.N, cfg.K, cfg.RPrime),
		outGates:           timing.NewMatrix(cfg.K, cfg.N, cfg.RPrime),
		pendingPerIn:       make([]int, cfg.N),
		seenStamp:          make([]cell.Time, cfg.N),
		lastSlot:           -1,
		lastFlowSeq:        cell.NewColumn[uint64](cfg.N * cfg.N),
		flowNext:           cell.NewColumn[mux.Cursor](cfg.N * cfg.N),
		dispatchedPerPlane: make([]uint64, cfg.K),
		pullsPerOut:        make([]int64, cfg.N),
		planeMask:          make([]uint64, cfg.N),
		busy:               make([]uint64, (cfg.N+63)/64),
		busySum:            make([]uint64, (cfg.N+64*64-1)/(64*64)),
		planes:             make([]*plane.Plane, cfg.K),
		pendingIdx:         make([]int32, cfg.N),
	}
	for i := range p.pendingIdx {
		p.pendingIdx[i] = -1
	}
	for i := range p.seenStamp {
		p.seenStamp[i] = cell.None
	}
	// The store is sharded by the same output geometry the worker pool
	// uses, so each mux shard frees only from its own slab; a serial
	// fabric gets a single shard.
	workers := ResolveWorkers(cfg.Workers, cfg.N)
	shards := workers
	if shards < 1 {
		shards = 1
	}
	p.store = cell.NewStore(shards)
	p.outShard = make([]int32, cfg.N)
	for i := 0; i < shards; i++ {
		for j := i * cfg.N / shards; j < (i+1)*cfg.N/shards; j++ {
			p.outShard[j] = int32(i)
		}
	}
	for k := range p.planes {
		p.planes[k] = plane.New(cell.Plane(k), cfg.N, p.store)
	}
	p.outputs = mux.NewOutputs(cfg.N, p.store, &p.flowNext, p.outShard)
	p.pviews = make([]planeView, cfg.N)
	for j := range p.pviews {
		p.pviews[j] = planeView{p: p, j: cell.Port(j)}
	}
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		p.faults = faults.NewRuntime(cfg.Faults, cfg.K)
	}
	if cfg.FaultPolicy == faults.DropCount {
		// Allocated on policy, not schedule: a plane a caller failed before
		// slot 0 (PPS.Plane(k).Fail()) drops under DropCount with no schedule.
		p.dropGaps = make([]queue.SeqTable, shards)
	}
	alg, err := makeAlg(envView{p})
	if err != nil {
		return nil, err
	}
	p.alg = alg
	if workers > 0 {
		p.pool = newWorkerPool(p, workers)
	}
	return p, nil
}

// envView is the demux.Env the algorithm sees.
type envView struct{ p *PPS }

func (e envView) Ports() int    { return e.p.cfg.N }
func (e envView) Planes() int   { return e.p.cfg.K }
func (e envView) RPrime() int64 { return e.p.cfg.RPrime }
func (e envView) Log() *demux.Log {
	e.p.logArmed = true
	return &e.p.log
}

// FreeGateMask serves the bitmask of planes whose line from input `in` is
// free at slot t from the gate matrix's per-row busy masks in O(busy) — at
// most r'-1 bits per input — rather than K virtual calls. The input-side
// matrix is always masked: Validate caps K at demux.MaxPlanes.
func (e envView) FreeGateMask(in cell.Port, t cell.Time) uint64 {
	return e.p.inGates.FreeColsMask(int(in), t)
}

// PlaneUp implements the optional demux.PlaneHealth capability: fault-aware
// wrappers mask planes for which it reports false.
func (e envView) PlaneUp(k cell.Plane) bool { return !e.p.planes[k].Failed() }

// Config returns the switch geometry.
func (p *PPS) Config() Config { return p.cfg }

// Ports returns N.
func (p *PPS) Ports() int { return p.cfg.N }

// Algorithm returns the demultiplexing algorithm under test.
func (p *PPS) Algorithm() demux.Algorithm { return p.alg }

// Plane returns center-stage plane k (for inspection and failure injection).
func (p *PPS) Plane(k cell.Plane) *plane.Plane { return p.planes[k] }

// Output returns output-port j's multiplexor (for utilization reports).
func (p *PPS) Output(j cell.Port) *mux.Output { return &p.outputs[j] }

// SetTracer attaches a structured event tracer; call before the first Step.
// A nil tracer (or one over the null sink) keeps the hot path untraced.
func (p *PPS) SetTracer(tr *obs.Tracer) {
	p.tracer = tr
	p.trace = tr.Enabled()
}

// InputPending reports the number of arrived-but-undispatched cells at
// input in (the fabric's own count, not the algorithm's report).
func (p *PPS) InputPending(in cell.Port) int { return p.pendingPerIn[in] }

// DispatchedTo reports the cumulative number of cells dispatched into
// plane k — the distribution the demux-imbalance probe compares against
// the round-robin ideal.
func (p *PPS) DispatchedTo(k cell.Plane) uint64 { return p.dispatchedPerPlane[k] }

// OutputPulls reports the cumulative number of cells output j's
// multiplexor has pulled from the planes.
func (p *PPS) OutputPulls(j cell.Port) int64 { return p.pullsPerOut[j] }

// violation traces a model violation before the error aborts the run.
func (p *PPS) violation(t cell.Time, err error) error {
	if p.trace {
		p.tracer.Emit(obs.Event{T: t, Kind: obs.EvViolation, Plane: cell.NoPlane, Note: err.Error()})
	}
	return err
}

// auditInput cross-checks the algorithm's buffer report for input i against
// the fabric's own count and the configured capacity (stage 3 of slot for
// one input). It only reads fabric and algorithm state, so input shards may
// run it concurrently.
func (p *PPS) auditInput(i int) error {
	in := cell.Port(i)
	rep := p.alg.Buffered(in)
	if rep != p.pendingPerIn[i] {
		return fmt.Errorf("fabric: %s reports %d buffered at input %d, fabric counts %d (cell lost or duplicated)",
			p.alg.Name(), rep, in, p.pendingPerIn[i])
	}
	switch {
	case p.cfg.BufferCap == 0 && rep != 0:
		return fmt.Errorf("fabric: bufferless PPS but %s buffered %d cells at input %d", p.alg.Name(), rep, in)
	case p.cfg.BufferCap > 0 && rep > p.cfg.BufferCap:
		return fmt.Errorf("fabric: input %d buffer occupancy %d exceeds capacity %d", in, rep, p.cfg.BufferCap)
	}
	return nil
}

// checkFlowOrder verifies and records per-flow order preservation for a
// departing cell. Its lastFlowSeq entry is written only by the goroutine
// driving output c.Flow.Out, so output shards need no locking. Under
// DropCount a flow's departures may skip FlowSeqs, but only FlowSeqs the
// fabric itself recorded as dropped — any other gap is still a violation.
func (p *PPS) checkFlowOrder(c cell.Cell) error {
	last := p.lastFlowSeq.At(int(c.FlowID) - 1)
	expect := *last
	orig := expect
	if c.FlowSeq != expect && p.dropGaps != nil {
		// The shard's gap table is filled in the serial phases and consumed
		// only here, by the shard that owns output c.Flow.Out.
		gaps := &p.dropGaps[p.outShard[c.Flow.Out]]
		for {
			if _, dropped := gaps.Take(uint32(c.FlowID), expect); !dropped {
				break
			}
			expect++
		}
	}
	if c.FlowSeq != expect {
		if orig == 0 {
			return fmt.Errorf("fabric: flow %v order violated: first departure has FlowSeq %d", c.Flow, c.FlowSeq)
		}
		return fmt.Errorf("fabric: flow %v order violated: cell %d departed after %d", c.Flow, c.FlowSeq, orig-1)
	}
	*last = c.FlowSeq + 1
	return nil
}

// recordDrop accounts one cell lost under the DropCount policy: the run
// total, the slot's drop list (the harness turns it into per-plane and
// per-input counters), the order referee's gap table, and the output
// resequencer's own record — the flow's successors must not park forever
// behind a cell that will never be delivered. Called only from the serial
// phases of Step, so the mux shards observe a consistent view after the
// stage barrier.
func (p *PPS) recordDrop(t cell.Time, c cell.Cell) {
	p.dropped++
	p.slotDrops = append(p.slotDrops, c)
	p.dropGaps[p.outShard[c.Flow.Out]].Put(uint32(c.FlowID), c.FlowSeq, 0)
	p.outputs[c.Flow.Out].Skip(c)
	if p.trace {
		p.tracer.Emit(obs.Event{T: t, Kind: obs.EvDrop, Seq: c.Seq, In: c.Flow.In, Out: c.Flow.Out, Plane: c.Via})
	}
}

// applyFaults executes the schedule events due at slot t. Under DropCount a
// failing plane's backlog is drained and accounted as drops; under Abort the
// plane keeps draining its backlog (the output-side lines are assumed
// intact) and only new dispatches into it error.
func (p *PPS) applyFaults(t cell.Time) {
	for _, e := range p.faults.Due(t) {
		switch e.Kind {
		case faults.Recover:
			p.planes[e.Plane].Recover()
		case faults.Fail:
			if p.cfg.FaultPolicy == faults.DropCount {
				p.failScratch = p.planes[e.Plane].FailDrop(p.failScratch[:0])
				for _, c := range p.failScratch {
					p.cellsInPlanes--
					p.planeMask[c.Flow.Out] &^= 1 << e.Plane
					p.recordDrop(t, c)
				}
			} else {
				p.planes[e.Plane].Fail()
			}
		}
	}
}

// planeView adapts the center stage for one output's multiplexor, speaking
// the batched mux.PlaneView protocol: one Eligible scan surfaces every
// pullable plane head for the slot, then one PullBatch seizes the lines and
// pops the refs — two interface crossings per output-slot instead of four
// per cell.
type planeView struct {
	p *PPS
	j cell.Port
	// pulls, when non-nil, receives per-plane pop counts instead of the
	// plane's own backlog counter being decremented: the sharded mux stage
	// points it at a worker-local array so concurrent outputs never write
	// shared plane state, and reconciles after the stage barrier.
	pulls []int
	// events, when non-nil, buffers EvXmit entries for ordered replay
	// after the stage barrier (the global log is append-only and shared).
	events *[]demux.Event
}

func (v *planeView) Planes() int { return v.p.cfg.K }

// Eligible implements mux.PlaneView: ascending plane order, non-empty queue
// for this output, free output-side line. Only the planes whose bit is set
// in the output's plane mask are visited, lowest bit first. The Seq comes
// from one store deref of the head ref; the snapshot stays valid for the
// whole slot because a pull only busies the pulled plane's own line (Seize
// holds it for r' >= 1 slots) and pops its own head.
func (v *planeView) Eligible(t cell.Time, dst []mux.Head) []mux.Head {
	for m := v.p.planeMask[v.j]; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		if !v.p.outGates.Gate(k, int(v.j)).Free(t) {
			continue
		}
		r, _ := v.p.planes[k].HeadRef(v.j)
		dst = append(dst, mux.Head{K: cell.Plane(k), Seq: v.p.store.At(r).Seq})
	}
	return dst
}

// PullBatch implements mux.PlaneView: take every listed head in order. On a
// gate violation the refs popped so far are returned with the error, so the
// caller can keep them accounted before the run aborts.
func (v *planeView) PullBatch(t cell.Time, heads []mux.Head, dst []cell.Ref) ([]cell.Ref, error) {
	for _, h := range heads {
		if err := v.p.outGates.Gate(int(h.K), int(v.j)).Seize(t); err != nil {
			return dst, err
		}
		dst = append(dst, v.pop(t, h.K))
	}
	return dst, nil
}

// pop removes plane k's head ref for this output and accounts the pull. The
// cell body is dereferenced only when the event log or tracer is armed.
func (v *planeView) pop(t cell.Time, k cell.Plane) cell.Ref {
	var r cell.Ref
	if v.pulls != nil {
		// Sharded mux stage: the global plane/output totals are reconciled
		// by stepSharded after the barrier, alongside the plane backlogs.
		r = v.p.planes[k].PopDeferred(v.j)
		v.pulls[k]++
	} else {
		r = v.p.planes[k].Pop(v.j)
		v.p.cellsInPlanes--
		v.p.cellsInOutputs++
	}
	// planeMask[j] is written only by the goroutine driving output j, so it
	// needs no deferral (same ownership argument as pullsPerOut).
	if v.p.planes[k].QueueLen(v.j) == 0 {
		v.p.planeMask[v.j] &^= 1 << k
	}
	v.p.pullsPerOut[v.j]++
	if v.p.logArmed || v.p.trace {
		c := v.p.store.At(r)
		if v.p.logArmed {
			e := demux.Event{T: t, Kind: demux.EvXmit, In: c.Flow.In, Out: v.j, K: k}
			if v.events != nil {
				*v.events = append(*v.events, e)
			} else {
				v.p.log.Append(e)
			}
		}
		if v.p.trace {
			v.p.tracer.Emit(obs.Event{T: t, Kind: obs.EvMuxPull, Seq: c.Seq, In: c.Flow.In, Out: v.j, Plane: k})
		}
	}
	return r
}

// dispatch runs stage 2 of a slot: present the arrivals to the algorithm and
// execute its sends, updating the plane/output backlog counters and marking
// the destination outputs busy.
func (p *PPS) dispatch(t cell.Time, arrivals []cell.Cell) error {
	sends, err := p.alg.Slot(t, arrivals)
	if err != nil {
		return fmt.Errorf("fabric: algorithm %s: %w", p.alg.Name(), err)
	}
	for _, s := range sends {
		c := s.Cell
		if s.Plane < 0 || int(s.Plane) >= p.cfg.K {
			return p.violation(t, fmt.Errorf("fabric: %s dispatched %v to nonexistent plane %d", p.alg.Name(), c, s.Plane))
		}
		if err := p.inGates.SeizeAt(int(c.Flow.In), int(s.Plane), t); err != nil {
			return p.violation(t, fmt.Errorf("fabric: %s violated the input constraint: %w", p.alg.Name(), err))
		}
		if p.pendingPerIn[c.Flow.In] == 0 {
			return p.violation(t, fmt.Errorf("fabric: %s dispatched cell %v that is not pending at input %d", p.alg.Name(), c, c.Flow.In))
		}
		if c.FlowID == 0 || int(c.FlowID) > p.lastFlowSeq.Len() {
			return p.violation(t, fmt.Errorf("fabric: %s dispatched cell %v with unknown flow id %d", p.alg.Name(), c, c.FlowID))
		}
		if p.pendingPerIn[c.Flow.In]--; p.pendingPerIn[c.Flow.In] == 0 {
			p.removePending(c.Flow.In)
		}
		p.pendingTotal--
		p.dispatchedPerPlane[s.Plane]++
		c.Dispatch = t
		c.Via = s.Plane
		if p.trace {
			p.tracer.Emit(obs.Event{T: t, Kind: obs.EvDispatch, Seq: c.Seq, In: c.Flow.In, Out: c.Flow.Out, Plane: s.Plane})
		}
		if p.cfg.FaultPolicy == faults.DropCount {
			// Dead-plane dispatches and loss-stream losses become accounted
			// drops. No demux.Log EvDispatch for a dropped cell: a logged
			// dispatch with no matching EvXmit would make log-derived
			// backlogs (stale-cpa) see the cell as queued forever.
			if p.planes[s.Plane].Failed() {
				p.recordDrop(t, c)
				continue
			}
			if p.faults != nil && p.faults.Lose(s.Plane) {
				p.recordDrop(t, c)
				continue
			}
		}
		// The cell body moves into the columnar store here — into the slab
		// of the shard that owns its output-port — and from this point on
		// the planes and outputs pass the 32-bit ref around. On a rejected
		// enqueue the ref is freed so the arena cannot leak on the error
		// path (audit cross-checks Live against the structural sums).
		ref := p.store.Put(int(p.outShard[c.Flow.Out]), c)
		if err := p.planes[s.Plane].Enqueue(ref); err != nil {
			p.store.Free(ref)
			return p.violation(t, err)
		}
		p.cellsInPlanes++
		p.planeMask[c.Flow.Out] |= 1 << s.Plane
		p.busy[c.Flow.Out>>6] |= 1 << (c.Flow.Out & 63)
		p.busySum[c.Flow.Out>>12] |= 1 << (c.Flow.Out >> 6 & 63)
		if p.logArmed {
			p.log.Append(demux.Event{T: t, Kind: demux.EvDispatch, In: c.Flow.In, Out: c.Flow.Out, K: s.Plane})
		}
		if p.trace {
			p.tracer.Emit(obs.Event{T: t, Kind: obs.EvPlaneEnqueue, Seq: c.Seq, In: c.Flow.In, Out: c.Flow.Out, Plane: s.Plane})
		}
	}
	return nil
}

// sweepBusy is the serial multiplexing stage (stage 4 of slot): it steps the
// busy outputs in ascending output order (pull, emit, verify flow order,
// account the departure) and clears the bits of those that drained.
// Stepping an output with no queued or buffered cell pulls and emits
// nothing, so skipping the idle ones changes no departure and no event.
func (p *PPS) sweepBusy(t cell.Time, dst []cell.Cell) ([]cell.Cell, error) {
	for s, sum := range p.busySum {
		for ; sum != 0; sum &= sum - 1 {
			w := s<<6 | bits.TrailingZeros64(sum)
			for m := p.busy[w]; m != 0; m &= m - 1 {
				j := cell.Port(w<<6 | bits.TrailingZeros64(m))
				c, ok, err := p.outputs[j].Step(t, &p.pviews[j])
				if err != nil {
					return dst, err
				}
				if ok {
					if err := p.checkFlowOrder(c); err != nil {
						return dst, p.violation(t, err)
					}
					p.departed++
					p.cellsInOutputs--
					if p.trace {
						p.tracer.Emit(obs.Event{T: t, Kind: obs.EvDepart, Seq: c.Seq, In: c.Flow.In, Out: c.Flow.Out, Plane: c.Via})
					}
					dst = append(dst, c)
				}
				if !p.outputBusy(j) {
					p.busy[w] &^= 1 << (j & 63)
				}
			}
			if p.busy[w] == 0 {
				p.busySum[s] &^= 1 << (w & 63)
			}
		}
	}
	return dst, nil
}

// removePending drops input in from the pending working set (its last
// buffered cell was dispatched). O(1) swap-remove; order is irrelevant — the
// set only scopes the sparse audit of slot.
func (p *PPS) removePending(in cell.Port) {
	idx := p.pendingIdx[in]
	last := len(p.pendingList) - 1
	moved := p.pendingList[last]
	p.pendingList[idx] = moved
	p.pendingIdx[moved] = idx
	p.pendingList = p.pendingList[:last]
	p.pendingIdx[in] = -1
}

// Step advances the PPS by one slot with every check the model defines (see
// slot, full). arrivals must be stamped cells with Arrive == t, at most one
// per input, in sequence order. Departing cells are appended to dst and
// returned with Depart (and the intermediate stamps) set.
func (p *PPS) Step(t cell.Time, arrivals []cell.Cell, dst []cell.Cell) ([]cell.Cell, error) {
	return p.slot(t, arrivals, dst, true)
}

// EventStep advances the PPS by one slot at O(events) cost, with the same
// contract and the same result as Step under the event core's preconditions
// (an unarmed log, serial mode); see slot for what it checks less.
func (p *PPS) EventStep(t cell.Time, arrivals []cell.Cell, dst []cell.Cell) ([]cell.Cell, error) {
	return p.slot(t, arrivals, dst, false)
}

// slot runs stages 0–5 of slot t, the one body behind Step (full) and
// EventStep (!full). full changes how much is checked, never what happens:
//   - the algorithm is consulted every slot, so a send forged on an idle
//     slot is caught; without full an idle slot skips its Slot call, a no-op
//     under IdleInvariant;
//   - all N input buffers are audited, not just the pending and arrival
//     inputs, which hold every capacity violation but may miss a misreport
//     for an input the fabric believes empty;
//   - stages 3 and 4 run sharded (parallel.go) when a pool is open and no
//     tracer is attached;
//   - the conservation audit also checks the counters against the
//     structures they mirror.
//
// Either way the serial mux stage sweeps only the busy outputs, in
// ascending order, so an attached tracer sees one event stream.
func (p *PPS) slot(t cell.Time, arrivals, dst []cell.Cell, full bool) ([]cell.Cell, error) {
	// 0. The slot clock is monotone and skips no slot while cells are in
	// flight; the fault events due at t apply before the arrivals.
	if t <= p.lastSlot {
		return dst, fmt.Errorf("fabric: non-monotone slot %d after %d", t, p.lastSlot)
	}
	if t != p.lastSlot+1 && p.Backlog() > 0 {
		return dst, fmt.Errorf("fabric: skipped from slot %d to %d with %d cells in flight", p.lastSlot, t, p.Backlog())
	}
	p.lastSlot = t
	if len(p.slotDrops) > 0 {
		p.slotDrops = p.slotDrops[:0]
	}
	if p.faults != nil {
		p.applyFaults(t)
	}

	// 1. Arrivals.
	for i := range arrivals {
		if err := p.arrive(t, &arrivals[i]); err != nil {
			return dst, p.violation(t, err)
		}
	}

	// 2. Demultiplexing.
	if full || len(arrivals) > 0 || p.pendingTotal > 0 {
		if err := p.dispatch(t, arrivals); err != nil {
			return dst, err
		}
	}

	// 3. Buffer discipline; 4. multiplexing and departures, serial while a
	// tracer, whose event stream is globally ordered, is attached.
	var err error
	if full && p.pool != nil && !p.trace && !p.pool.closed {
		if dst, err = p.stepSharded(t, dst); err != nil {
			return dst, p.violation(t, err)
		}
	} else {
		if full {
			for i := 0; i < p.cfg.N; i++ {
				if err := p.auditInput(i); err != nil {
					return dst, p.violation(t, err)
				}
			}
		} else {
			for _, in := range p.pendingList {
				if err := p.auditInput(int(in)); err != nil {
					return dst, p.violation(t, err)
				}
			}
			for _, c := range arrivals {
				// Arrival inputs still pending were audited above.
				if p.pendingPerIn[c.Flow.In] == 0 {
					if err := p.auditInput(int(c.Flow.In)); err != nil {
						return dst, p.violation(t, err)
					}
				}
			}
		}
		if dst, err = p.sweepBusy(t, dst); err != nil {
			return dst, err
		}
	}

	// 5. Conservation audit.
	if p.cfg.CheckInvariants {
		if err := p.audit(full); err != nil {
			return dst, p.violation(t, err)
		}
	}
	return dst, nil
}

// arrive runs stage 1 of slot for one arrival, kept out of slot's per-slot
// path: validate it, count it pending, grow the per-flow columns to its id.
func (p *PPS) arrive(t cell.Time, c *cell.Cell) error {
	if c.Arrive != t {
		return fmt.Errorf("fabric: cell %v presented at slot %d", *c, t)
	}
	if int(c.Flow.In) < 0 || int(c.Flow.In) >= p.cfg.N || int(c.Flow.Out) < 0 || int(c.Flow.Out) >= p.cfg.N {
		return fmt.Errorf("fabric: cell %v outside %dx%d switch", *c, p.cfg.N, p.cfg.N)
	}
	// An n-port switch carries at most n² flows, so no stamped id exceeds
	// n²; the bound keeps a forged id from growing the columns.
	if n := uint64(p.cfg.N); c.FlowID == 0 || uint64(c.FlowID) > n*n {
		return fmt.Errorf("fabric: cell %v carries flow id %d outside [1, %d] (unstamped or forged)", *c, c.FlowID, n*n)
	}
	if id := int(c.FlowID); id > p.lastFlowSeq.Len() {
		p.lastFlowSeq.GrowTo(id)
		p.flowNext.GrowTo(id)
	}
	if p.seenStamp[c.Flow.In] == t {
		return fmt.Errorf("fabric: two cells arrived at input %d in slot %d", c.Flow.In, t)
	}
	p.seenStamp[c.Flow.In] = t
	p.arrived++
	if p.pendingPerIn[c.Flow.In]++; p.pendingPerIn[c.Flow.In] == 1 {
		p.pendingIdx[c.Flow.In] = int32(len(p.pendingList))
		p.pendingList = append(p.pendingList, c.Flow.In)
	}
	p.pendingTotal++
	if p.logArmed {
		p.log.Append(demux.Event{T: t, Kind: demux.EvArrival, In: c.Flow.In, Out: c.Flow.Out})
	}
	if p.trace {
		p.tracer.Emit(obs.Event{T: t, Kind: obs.EvArrival, Seq: c.Seq, In: c.Flow.In, Out: c.Flow.Out, Plane: cell.NoPlane})
	}
	return nil
}

// IdleInvariant reports whether eliding the algorithm's Slot calls on idle
// slots is sound: true unless the global event log is armed. A u-RT
// algorithm's view of the log advances every slot, silent ones included,
// so its runs (and a run whose log a diagnostic armed) step.
func (p *PPS) IdleInvariant() bool { return !p.logArmed }

// NextFaultSlot reports the slot of the next unapplied fault-schedule event,
// or cell.None. The harness truncates an idle jump at this slot so
// fail/recover events (and their drop accounting) land exactly where the
// stepped engine would apply them.
func (p *PPS) NextFaultSlot() cell.Time {
	if p.faults == nil {
		return cell.None
	}
	return p.faults.Next()
}

// outputBusy reports whether output j still has work: cells in its
// resequencing buffer or queued for it in any plane. O(1) via the
// per-output plane mask.
func (p *PPS) outputBusy(j cell.Port) bool { return p.outputs[j].Buffered() > 0 || p.planeMask[j] != 0 }

// audit checks cell conservation over the O(1) counters: every cell that
// arrived is pending, queued in a plane, parked in an output, departed, or
// dropped (p.dropped is always zero under Abort). full first checks the
// counters against the structures they mirror, and the store's live refs.
func (p *PPS) audit(full bool) error {
	if full {
		inPlanes := 0
		for _, pl := range p.planes {
			inPlanes += pl.Backlog()
		}
		inOutputs := 0
		for j := range p.outputs {
			inOutputs += p.outputs[j].Buffered()
		}
		if inPlanes != p.cellsInPlanes || inOutputs != p.cellsInOutputs {
			return fmt.Errorf("fabric: backlog counters drifted: planes hold %d (counter %d), outputs hold %d (counter %d)",
				inPlanes, p.cellsInPlanes, inOutputs, p.cellsInOutputs)
		}
		if live := p.store.Live(); live != inPlanes+inOutputs {
			return fmt.Errorf("fabric: cell store leaked: %d live refs, planes+outputs hold %d cells", live, inPlanes+inOutputs)
		}
	}
	if uint64(p.Backlog())+p.departed+p.dropped != p.arrived {
		return fmt.Errorf("fabric: conservation violated: arrived %d != pending %d + planes %d + outputs %d + departed %d + dropped %d",
			p.arrived, p.pendingTotal, p.cellsInPlanes, p.cellsInOutputs, p.departed, p.dropped)
	}
	return nil
}

// Backlog reports the number of cells inside the switch (input buffers,
// planes and output buffers). O(1): the terms are maintained incrementally
// at every enqueue, pop, departure and fault-drop site.
func (p *PPS) Backlog() int { return p.pendingTotal + p.cellsInPlanes + p.cellsInOutputs }

// Drained reports whether every cell that arrived has left the switch —
// departed on an external line or, under DropCount, lost to a failed plane.
func (p *PPS) Drained() bool { return p.arrived == p.departed+p.dropped }

// Arrived reports the number of cells accepted so far.
func (p *PPS) Arrived() uint64 { return p.arrived }

// Departed reports the number of cells emitted so far.
func (p *PPS) Departed() uint64 { return p.departed }

// Dropped reports the number of cells lost to failed planes (DropCount
// policy); always zero under Abort.
func (p *PPS) Dropped() uint64 { return p.dropped }

// SlotDrops returns the cells dropped during the most recent Step, each with
// Via set to the plane that lost it. The slice is the fabric's scratch
// storage, valid until the next Step; the harness copies what it needs into
// the drop counters.
func (p *PPS) SlotDrops() []cell.Cell { return p.slotDrops }

// LivePlanes reports the number of planes currently in service.
func (p *PPS) LivePlanes() int {
	n := 0
	for _, pl := range p.planes {
		if !pl.Failed() {
			n++
		}
	}
	return n
}

// PeakPlaneQueue reports the largest per-output backlog observed across all
// planes — the buffer provisioning the measured delays imply (Section 1.2).
func (p *PPS) PeakPlaneQueue() int {
	peak := 0
	for _, pl := range p.planes {
		if q := pl.PeakQueue(); q > peak {
			peak = q
		}
	}
	return peak
}

// Log exposes the global event log (used by diagnostics; algorithms receive
// it through their Env). The log records events only once requested: a
// diagnostic caller that wants the full stream must call Log and register a
// cursor with NewCursor before the first Step. Algorithms that read the log
// register at construction, so their view is always complete. Arming the
// log pins the run to the stepped core (see IdleInvariant).
func (p *PPS) Log() *demux.Log {
	p.logArmed = true
	return &p.log
}

// CurrentSlot reports the last slot the fabric executed, or -1 before the
// first Step. The harness uses it to enforce that a PPS is driven at most
// once: per-run accounting (output utilization windows, peak queues,
// dispatch counters) is cumulative and would silently blend runs if a
// fabric were reused.
func (p *PPS) CurrentSlot() cell.Time { return p.lastSlot }
