// Stage-parallel slot engine: a persistent sharded worker pool that runs
// stage 3 (per-input buffer audit) across input shards and stage 4 (per-
// output mux pulls, order checks and departures) across output shards, with
// a barrier between the stages.
//
// Why determinism holds (DESIGN.md §8 expands on this):
//
//   - Stage 3 only *reads* fabric and algorithm state, so sharding it
//     cannot change any result, only which violation is detected first;
//     workers scan their shard in ascending input order and the collector
//     takes the first error in shard order, which is the lowest input
//     index — exactly the error the serial loop returns.
//   - In stage 4, output j touches only row j of the departure scratch,
//     column j of the output-gate matrix, the per-output queues of each
//     plane (pops deferred from the shared backlog counter), its own
//     mux.Output, its own columnar-store shard (frees), pullsPerOut[j] and
//     the lastFlowSeq and flowNext entries of its own flows (both columns
//     are grown in the serial prologue, never by a shard). Outputs are
//     therefore independent within a slot, and
//     running them in any order yields the same per-output outcome as the
//     serial j-ascending loop.
//   - Everything order-sensitive is applied after the barrier by the
//     stepping goroutine, in the serial loop's order: plane backlog
//     reconciliation, global-log EvXmit replay (workers buffer events; a
//     worker's buffer is ascending in j because it scans its contiguous
//     shard in order, so replaying worker 0..W-1 reproduces the serial
//     append order), and the departure append into dst in ascending j.
//
// The handoff is lock-free (DESIGN.md §13): each worker owns a cache-line-
// padded mailbox word holding epoch<<2|job. The coordinator publishes a
// stage by storing a fresh word into every mailbox; a worker spins briefly
// on its own word and then parks on a capacity-1 token channel, so an idle
// pool burns no CPU while a loaded one never enters the scheduler. The
// epoch makes consecutive words distinct even when the job repeats every
// slot — without it, two back-to-back jobMux commands would be
// indistinguishable (ABA) and a worker could miss one. Completion is a
// single shared countdown: the last finisher hands the coordinator a token.
// Everything a worker writes (errors, pulls, departures) happens before its
// atomic countdown decrement, and the coordinator reads only after
// observing zero, so plain writes suffice for the payload. The pool is
// spawned once in New — no per-slot goroutine creation, no channel sends or
// WaitGroup operations per slot — preserving the 0-allocs/slot steady-state
// invariant (TestParallelSlotAllocFree pins it).
package fabric

import (
	"runtime"
	"sync/atomic"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
)

// minShard is the smallest number of ports worth a dedicated worker in auto
// mode: below this the per-slot barrier costs more than the sharded work.
const minShard = 16

// ResolveWorkers maps a Config.Workers request to the effective worker
// count: 0 for the serial engine, otherwise the number of pool workers.
// Explicit positive requests are honored (clamped to N); -1 (auto) derives
// the count from GOMAXPROCS and N, and falls back to serial when shards
// would be too small (under minShard ports each) to pay for the barrier.
func ResolveWorkers(workers, n int) int {
	switch {
	case workers == 0:
		return 0
	case workers > 0:
		if workers > n {
			workers = n
		}
		return workers
	default: // auto
		w := runtime.GOMAXPROCS(0)
		if maxW := n / minShard; w > maxW {
			w = maxW
		}
		if w <= 1 {
			return 0
		}
		return w
	}
}

// Mailbox command words are epoch<<jobBits | job.
const (
	jobNone  uint64 = 0 // initial mailbox state, never published
	jobAudit uint64 = 1 // stage 3: per-input buffer audit
	jobMux   uint64 = 2 // stage 4: per-output mux pulls and departures
	jobQuit  uint64 = 3 // terminate the worker

	jobBits = 2
	jobMask = 1<<jobBits - 1
)

// workerState is one worker's mailbox, padded so adjacent workers' command
// words never share a cache line (the coordinator writes all of them
// back-to-back every stage).
type workerState struct {
	// cmd holds epoch<<jobBits | job. The coordinator's atomic store
	// publishes the stage (and everything written before it, e.g. the
	// slot t); the worker's atomic load acquires it.
	cmd atomic.Uint64
	// park is the worker's parking lot: capacity 1, a token is tossed in
	// (non-blocking) after every command store in case the worker gave up
	// spinning. A token left over from a stage the worker caught by
	// spinning causes at most one spurious wake, re-checked against cmd.
	park chan struct{}
	_    [64]byte
}

// workerPool is the persistent stage-parallel executor of one PPS.
type workerPool struct {
	p       *PPS
	workers int
	ws      []workerState
	// epoch counts published stages; only the coordinator writes it.
	epoch uint64
	// pending counts workers still inside the current stage. The last
	// finisher (Add hits 0) tosses the coordinator a token.
	pending   atomic.Int64
	coordPark chan struct{}
	// spin is the budget of mailbox re-loads before parking. Zero on a
	// single-CPU process: spinning there only steals the timeslice the
	// other side needs to make progress.
	spin   int
	closed bool

	// t is the slot being executed, set by the stepping goroutine before
	// the stage is published (workers only read it while running a stage).
	t cell.Time

	// Shard bounds: worker w owns inputs [inLo[w], inHi[w]) and outputs
	// [outLo[w], outHi[w]). The output split matches the columnar store's
	// shard geometry (PPS.outShard), so worker w frees refs only from
	// store shard w.
	inLo, inHi   []int
	outLo, outHi []int

	// errs[w] is worker w's first violation this stage, nil otherwise.
	errs []error
	// pulls[w][k] counts worker w's pops from plane k this slot, deferred
	// from the planes' shared backlog counters until after the barrier.
	pulls [][]int
	// events[w] buffers worker w's EvXmit log entries for ordered replay
	// (only used while the global event log is armed).
	events [][]demux.Event

	// depCell[j]/depHas[j] hold output j's departure this slot, if any.
	depCell []cell.Cell
	depHas  []bool
}

// newWorkerPool builds the pool and spawns its workers; w must be >= 1.
func newWorkerPool(p *PPS, w int) *workerPool {
	n := p.cfg.N
	pl := &workerPool{
		p:         p,
		workers:   w,
		ws:        make([]workerState, w),
		coordPark: make(chan struct{}, 1),
		inLo:      make([]int, w),
		inHi:      make([]int, w),
		outLo:     make([]int, w),
		outHi:     make([]int, w),
		errs:      make([]error, w),
		pulls:     make([][]int, w),
		events:    make([][]demux.Event, w),
		depCell:   make([]cell.Cell, n),
		depHas:    make([]bool, n),
	}
	// Spinning is only useful when the coordinator and the workers can
	// actually run simultaneously: it needs both the scheduler's permission
	// (GOMAXPROCS) and real hardware parallelism (NumCPU). On a single CPU
	// a spinning worker merely steals the timeslice the other side needs,
	// so the budget drops to zero and every wait parks immediately.
	if runtime.GOMAXPROCS(0) > 1 && runtime.NumCPU() > 1 {
		pl.spin = 2048
	}
	for i := 0; i < w; i++ {
		pl.inLo[i], pl.inHi[i] = i*n/w, (i+1)*n/w
		pl.outLo[i], pl.outHi[i] = i*n/w, (i+1)*n/w
		pl.pulls[i] = make([]int, p.cfg.K)
		pl.ws[i].park = make(chan struct{}, 1)
		go pl.loop(i)
	}
	return pl
}

// loop is one worker: await the next command word, run the stage over the
// shard, count down. A worker remembers the last word it executed; any
// differing word is a fresh command (the epoch guarantees freshness).
func (pl *workerPool) loop(w int) {
	ws := &pl.ws[w]
	var last uint64
	for {
		word := pl.await(ws, last)
		last = word
		switch word & jobMask {
		case jobAudit:
			pl.auditShard(w)
		case jobMux:
			pl.muxShard(w)
		case jobQuit:
			pl.finish()
			return
		}
		pl.finish()
	}
}

// await returns the next command word differing from last: spin on the
// mailbox up to the budget, then park on the token channel and re-check.
func (pl *workerPool) await(ws *workerState, last uint64) uint64 {
	for i := 0; i < pl.spin; i++ {
		if word := ws.cmd.Load(); word != last {
			return word
		}
	}
	for {
		if word := ws.cmd.Load(); word != last {
			return word
		}
		<-ws.park
	}
}

// finish counts this worker out of the stage; the last one wakes the
// coordinator. The atomic decrement orders every preceding plain write
// (errs, pulls, events, departures, store frees) before the coordinator's
// read of pending == 0.
func (pl *workerPool) finish() {
	if pl.pending.Add(-1) == 0 {
		select {
		case pl.coordPark <- struct{}{}:
		default:
		}
	}
}

// runStage publishes a stage to every worker and blocks until all have
// counted out. Must only be called by the goroutine driving Step.
func (pl *workerPool) runStage(job uint64) {
	pl.epoch++
	word := pl.epoch<<jobBits | job
	pl.pending.Store(int64(pl.workers))
	for i := range pl.ws {
		ws := &pl.ws[i]
		ws.cmd.Store(word)
		select {
		case ws.park <- struct{}{}:
		default:
		}
	}
	for i := 0; i < pl.spin; i++ {
		if pl.pending.Load() == 0 {
			return
		}
	}
	// A token left in coordPark by a stage we caught spinning is consumed
	// here and re-checked — at most one spurious pass per stage.
	for pl.pending.Load() != 0 {
		<-pl.coordPark
	}
}

// firstErr returns the first recorded shard error in shard order — the
// violation with the lowest port index, matching the serial loop's choice.
func (pl *workerPool) firstErr() error {
	for _, err := range pl.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// auditShard runs stage 3 over worker w's inputs.
func (pl *workerPool) auditShard(w int) {
	pl.errs[w] = nil
	for i := pl.inLo[w]; i < pl.inHi[w]; i++ {
		if err := pl.p.auditInput(i); err != nil {
			pl.errs[w] = err
			return
		}
	}
}

// muxShard runs stage 4 over worker w's outputs.
func (pl *workerPool) muxShard(w int) {
	p := pl.p
	pl.errs[w] = nil
	for j := pl.outLo[w]; j < pl.outHi[w]; j++ {
		pv := &p.pviews[j]
		pv.pulls = pl.pulls[w]
		if p.logArmed {
			pv.events = &pl.events[w]
		}
		c, ok, err := p.outputs[j].Step(pl.t, pv)
		pv.pulls, pv.events = nil, nil
		if err != nil {
			pl.errs[w] = err
			return
		}
		if !ok {
			pl.depHas[j] = false
			continue
		}
		if err := p.checkFlowOrder(c); err != nil {
			pl.errs[w] = err
			return
		}
		pl.depCell[j] = c
		pl.depHas[j] = true
	}
}

// stepSharded executes stages 3 and 4 of one slot on the pool and appends
// the slot's departures to dst in ascending output order. It must only be
// called by the goroutine driving Step, with the tracer detached.
//
// Fault injection needs no changes here: every drop happens in the serial
// phases of Step (schedule application at slot start, the dispatch loop of
// stage 2), so by the time the shards run, the drop counters, the dropGaps
// referee tables, and the resequencers' drop tables are final for the slot.
// A shard only takes from the tables of its own outputs — checkFlowOrder
// from dropGaps[out], Buffer.advance from that output's buffer — which
// keeps the sharded engine bit-identical to the serial one under any
// schedule.
func (p *PPS) stepSharded(t cell.Time, dst []cell.Cell) ([]cell.Cell, error) {
	pl := p.pool
	pl.t = t

	pl.runStage(jobAudit)
	if err := pl.firstErr(); err != nil {
		return dst, err
	}

	pl.runStage(jobMux)
	// Reconcile the deferred plane pops and replay buffered log events
	// before surfacing any error, so counters and the log stay consistent
	// with the pops that actually happened.
	totalPulls := 0
	for w := 0; w < pl.workers; w++ {
		pulls := pl.pulls[w]
		for k, n := range pulls {
			if n != 0 {
				p.planes[k].AddBacklogDelta(-n)
				totalPulls += n
				pulls[k] = 0
			}
		}
	}
	// Every deferred pop moved one cell from a plane to an output buffer;
	// the per-output queuedPerOut deltas were applied inline by the owning
	// shards (planeView.pop), only the global totals are deferred here.
	p.cellsInPlanes -= totalPulls
	p.cellsInOutputs += totalPulls
	if p.logArmed {
		for w := 0; w < pl.workers; w++ {
			for _, e := range pl.events[w] {
				p.log.Append(e)
			}
			pl.events[w] = pl.events[w][:0]
		}
	}
	if err := pl.firstErr(); err != nil {
		return dst, err
	}
	for j := 0; j < p.cfg.N; j++ {
		if !pl.depHas[j] {
			continue
		}
		p.departed++
		p.cellsInOutputs--
		dst = append(dst, pl.depCell[j])
	}
	return dst, nil
}

// Workers reports the effective worker count of the stage-parallel engine
// (0 for the serial engine).
func (p *PPS) Workers() int {
	if p.pool == nil {
		return 0
	}
	return p.pool.workers
}

// ShardPorts reports the per-worker output-shard widths of the stage-
// parallel engine: element w is the number of output-ports (and columnar-
// store slab) worker w owns. Nil for the serial engine. Allocates; meant
// for run metadata (harness.Result), not the hot path.
func (p *PPS) ShardPorts() []int {
	if p.pool == nil {
		return nil
	}
	out := make([]int, p.pool.workers)
	for w := range out {
		out[w] = p.pool.outHi[w] - p.pool.outLo[w]
	}
	return out
}

// Close stops the worker pool's goroutines (a jobQuit broadcast; the barrier
// waits for every worker to exit its loop). It is safe to call on a serial
// fabric and more than once; after Close, Step keeps working through the
// serial engine (bit-identical results), so callers that outlive a run —
// harness.Drive closes the pool when a run finishes — can still inspect or
// step the fabric. Close must not be called concurrently with Step.
func (p *PPS) Close() {
	if p.pool == nil || p.pool.closed {
		return
	}
	p.pool.closed = true
	p.pool.runStage(jobQuit)
}
