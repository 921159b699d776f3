package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"ppsim"
	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/metrics"
	"ppsim/internal/mux"
	"ppsim/internal/obs"
	"ppsim/internal/plane"
	"ppsim/internal/shadow"
	"ppsim/internal/timing"
)

// The layer kernels replay the cell stream a traced pass recorded through
// one package's exported API at a time, with nothing else running and no
// clock read inside the loop. Each reproduces what the fabric observed (the
// plane every cell took, the slot it departed) so the replay is known to do
// the same work; what the fabric spends beyond their sum — referee, busy-set
// sweep, dispatch glue — cannot be isolated from outside and is reported as
// fabric.residual_ns_per_cell.

// kernelReps is how many times each kernel runs; the median is reported.
const kernelReps = 3

// kernelTimes is ns per replayed cell for each kernel of one part.
type kernelTimes struct {
	Part              string  `json:"part"`
	Algorithm         string  `json:"algorithm"`
	Cells             int     `json:"cells"`
	Skipped           string  `json:"skipped,omitempty"`
	Demux             float64 `json:"demux_ns_per_cell"`
	Timing            float64 `json:"timing_ns_per_cell"`
	Store             float64 `json:"cell_store_ns_per_cell"`
	Plane             float64 `json:"plane_ns_per_cell"`
	Mux               float64 `json:"mux_ns_per_cell"`
	ReseqPeak         int     `json:"mux_reseq_parked_peak"`
	Oracle            float64 `json:"shadow_oracle_ns_per_cell"`
	Metrics           float64 `json:"metrics_kernel_ns_per_cell"`
	MetricsAllocBytes float64 `json:"metrics_alloc_bytes_per_cell"`
	Hist              float64 `json:"obs_hist_ns_per_record"`
}

// kernelable reports whether the replay models alg: the input-buffered
// family dispatches on later slots and the stale family reads the global
// event log, neither of which the demux kernel's environment provides.
func kernelable(alg ppsim.Algorithm) bool {
	return !strings.HasPrefix(alg.Name, "stale-") && !strings.HasPrefix(alg.Name, "buffered-")
}

// op is one replayed call: kernels sort their ops by slot, then by the order
// the fabric makes the calls within a slot (kind, then key).
type op struct {
	t    cell.Time
	kind uint8
	key  uint32
	seq  uint32
}

func sortOps(ops []op) {
	slices.SortFunc(ops, func(a, b op) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.kind, b.kind), cmp.Compare(a.key, b.key), cmp.Compare(a.seq, b.seq))
	})
}

// sink keeps the compiler from discarding a kernel's results.
var sink uint64

// stream is the recorded prefix a part's kernels replay.
type stream struct {
	n, k      int
	rprime    int64
	alg       ppsim.Algorithm
	cells     []cell.Cell // by Seq, every stamp set
	shadowDep []cell.Time
}

func (s *stream) perCell(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / float64(len(s.cells))
}

// median runs fn kernelReps times and returns its median duration.
func median(fn func() (time.Duration, error)) (time.Duration, error) {
	ds := make([]time.Duration, 0, kernelReps)
	for i := 0; i < kernelReps; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d)
	}
	slices.Sort(ds)
	return ds[len(ds)/2], nil
}

// kernelEnv is the demux.Env of the demux kernel: the input-side gate matrix
// and nothing else, which is all a bufferless, log-free algorithm may read.
type kernelEnv struct {
	s   *stream
	in  *timing.Matrix
	log demux.Log
}

func (e *kernelEnv) Ports() int      { return e.s.n }
func (e *kernelEnv) Planes() int     { return e.s.k }
func (e *kernelEnv) RPrime() int64   { return e.s.rprime }
func (e *kernelEnv) Log() *demux.Log { return &e.log }
func (e *kernelEnv) InputGateFreeAt(in cell.Port, k cell.Plane) cell.Time {
	return e.in.Gate(int(in), int(k)).FreeAt()
}
func (e *kernelEnv) FreeGateMask(in cell.Port, t cell.Time) uint64 {
	return e.in.FreeColsMask(int(in), t)
}

// demuxKernel presents the arrivals slot by slot to a fresh algorithm and
// executes its sends on the input gates, requiring every recorded plane
// choice; the second duration is the twin pass that seizes the recorded
// planes without asking, i.e. the gate work inside the first.
func (s *stream) demuxKernel() (withGates, gatesOnly time.Duration, err error) {
	factory, err := algorithmFactory(s.alg)
	if err != nil {
		return 0, 0, err
	}
	arrivals := make([]cell.Cell, len(s.cells))
	for i, c := range s.cells {
		arrivals[i] = cell.New(c.Seq, c.FlowSeq, c.Flow, c.Arrive)
		arrivals[i].Deadline = c.Deadline
	}
	env := &kernelEnv{s: s, in: timing.NewMatrix(s.n, s.k, s.rprime)}
	alg, err := factory(env)
	if err != nil {
		return 0, 0, err
	}
	via := make([]cell.Plane, len(s.cells))
	t0 := time.Now()
	for lo := 0; lo < len(arrivals); {
		t := arrivals[lo].Arrive
		hi := lo + 1
		for hi < len(arrivals) && arrivals[hi].Arrive == t {
			hi++
		}
		sends, err := alg.Slot(t, arrivals[lo:hi])
		if err != nil {
			return 0, 0, err
		}
		for _, sd := range sends {
			if err := env.in.SeizeAt(int(sd.Cell.Flow.In), int(sd.Plane), t); err != nil {
				return 0, 0, err
			}
			via[sd.Cell.Seq] = sd.Plane
		}
		lo = hi
	}
	withGates = time.Since(t0)
	for i, c := range s.cells {
		if via[i] != c.Via {
			return 0, 0, fmt.Errorf("demux kernel: cell %d chose plane %d, fabric recorded %d", i, via[i], c.Via)
		}
	}
	in := timing.NewMatrix(s.n, s.k, s.rprime)
	t0 = time.Now()
	for _, c := range s.cells {
		if err := in.SeizeAt(int(c.Flow.In), int(c.Via), c.Dispatch); err != nil {
			return 0, 0, err
		}
	}
	return withGates, time.Since(t0), nil
}

// pullOrder lists the cells in the order the multiplexors pulled them: by
// slot, then output, then plane.
func (s *stream) pullOrder() []op {
	ops := make([]op, len(s.cells))
	for i, c := range s.cells {
		ops[i] = op{t: c.AtOutput, kind: uint8(0), key: uint32(c.Flow.Out), seq: uint32(i)}
	}
	slices.SortFunc(ops, func(a, b op) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.key, b.key), cmp.Compare(s.cells[a.seq].Via, s.cells[b.seq].Via))
	})
	return ops
}

// outGateKernel replays the output-side line gates: every pull found its
// (plane, output) gate free and seized it.
func (s *stream) outGateKernel(pulls []op) (time.Duration, error) {
	out := timing.NewMatrix(s.k, s.n, s.rprime)
	t0 := time.Now()
	for _, o := range pulls {
		c := &s.cells[o.seq]
		g := out.Gate(int(c.Via), int(c.Flow.Out))
		if !g.Free(o.t) {
			return 0, fmt.Errorf("timing kernel: gate (%d,%d) busy at recorded pull slot %d", c.Via, c.Flow.Out, o.t)
		}
		if err := g.Seize(o.t); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// storeKernel replays the columnar store's life cycle: Put at dispatch,
// Take at departure, so the free list sees the live set the fabric had.
func (s *stream) storeKernel(ops []op) (time.Duration, error) {
	st := cell.NewStore(1)
	refs := make([]cell.Ref, len(s.cells))
	var acc uint64
	t0 := time.Now()
	for _, o := range ops {
		if o.kind == 0 {
			refs[o.seq] = st.Put(0, s.cells[o.seq])
		} else {
			acc += st.Take(refs[o.seq]).Seq
		}
	}
	d := time.Since(t0)
	sink += acc
	if st.Live() != 0 {
		return 0, fmt.Errorf("store kernel: %d refs live after replay", st.Live())
	}
	return d, nil
}

// filled returns a store holding every stream cell, and the refs by Seq.
func (s *stream) filled() (*cell.Store, []cell.Ref) {
	st := cell.NewStore(1)
	refs := make([]cell.Ref, len(s.cells))
	for i, c := range s.cells {
		refs[i] = st.Put(0, c)
	}
	return st, refs
}

// planeKernel replays the center-stage FIFOs: Enqueue at dispatch, HeadRef
// and Pop at the pull, each pop returning the recorded cell.
func (s *stream) planeKernel(ops []op) (time.Duration, error) {
	st, refs := s.filled()
	planes := make([]*plane.Plane, s.k)
	for k := range planes {
		planes[k] = plane.New(cell.Plane(k), s.n, st)
	}
	wrong := 0
	t0 := time.Now()
	for _, o := range ops {
		c := &s.cells[o.seq]
		p := planes[c.Via]
		if o.kind == 0 {
			if err := p.Enqueue(refs[o.seq]); err != nil {
				return 0, err
			}
			continue
		}
		if r, ok := p.HeadRef(c.Flow.Out); !ok || r != refs[o.seq] {
			wrong++
		}
		p.Pop(c.Flow.Out)
	}
	d := time.Since(t0)
	if wrong != 0 {
		return 0, fmt.Errorf("plane kernel: %d pops did not return the recorded cell", wrong)
	}
	return d, nil
}

// replayView is the mux.PlaneView of the mux kernel for one output: it
// offers exactly the heads the fabric recorded as pulled in each slot, so
// the policy and the resequencer run alone.
type replayView struct {
	k     int
	pulls []pull
	cur   int
}

type pull struct {
	t   cell.Time
	k   cell.Plane
	seq uint64
	ref cell.Ref
}

func (v *replayView) Planes() int { return v.k }

func (v *replayView) Eligible(t cell.Time, dst []mux.Head) []mux.Head {
	for i := v.cur; i < len(v.pulls) && v.pulls[i].t == t; i++ {
		dst = append(dst, mux.Head{K: v.pulls[i].k, Seq: v.pulls[i].seq})
	}
	return dst
}

func (v *replayView) Take(cell.Time, cell.Plane) (cell.Ref, error) {
	r := v.pulls[v.cur].ref
	v.cur++
	return r, nil
}

func (v *replayView) PullBatch(_ cell.Time, heads []mux.Head, dst []cell.Ref) ([]cell.Ref, error) {
	for range heads {
		dst = append(dst, v.pulls[v.cur].ref)
		v.cur++
	}
	return dst, nil
}

// muxStage is one fresh set of outputs over a filled store.
type muxStage struct {
	outs  []*mux.Output
	views []*replayView
}

func (s *stream) newMuxStage(pulls []op) *muxStage {
	st, refs := s.filled()
	m := &muxStage{outs: make([]*mux.Output, s.n), views: make([]*replayView, s.n)}
	for _, o := range pulls {
		c := &s.cells[o.seq]
		j := c.Flow.Out
		if m.outs[j] == nil {
			m.outs[j] = mux.NewOutput(j, mux.Eager{}, st, s.n)
			m.views[j] = &replayView{k: s.k}
		}
		m.views[j].pulls = append(m.views[j].pulls, pull{t: o.t, k: c.Via, seq: c.Seq, ref: refs[o.seq]})
	}
	return m
}

// stepCall is one Output.Step the mux kernel makes.
type stepCall struct {
	t cell.Time
	j cell.Port
}

// muxSchedule steps every output alone from its first pull until it runs
// dry, requiring every recorded departure slot, and returns the calls made
// in the fabric's order (slot-major, ascending output) plus the largest
// resequencer occupancy any output was left with after a step.
func (s *stream) muxSchedule(pulls []op) ([]stepCall, int, error) {
	m := s.newMuxStage(pulls)
	var calls []stepCall
	peak, departed := 0, 0
	for j, out := range m.outs {
		if out == nil {
			continue
		}
		v := m.views[j]
		for t := v.pulls[0].t; ; {
			c, ok, err := out.Step(t, v)
			if err != nil {
				return nil, 0, err
			}
			calls = append(calls, stepCall{t: t, j: cell.Port(j)})
			if ok {
				if want := s.cells[c.Seq].Depart; want != t {
					return nil, 0, fmt.Errorf("mux kernel: cell %d departed at slot %d, fabric recorded %d", c.Seq, t, want)
				}
				departed++
			}
			if b := out.Buffered(); b > 0 {
				peak = max(peak, b)
				t++
			} else if v.cur < len(v.pulls) {
				t = v.pulls[v.cur].t
			} else {
				break
			}
		}
	}
	if departed != len(s.cells) {
		return nil, 0, fmt.Errorf("mux kernel: %d of %d cells departed", departed, len(s.cells))
	}
	slices.SortStableFunc(calls, func(a, b stepCall) int { return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.j, b.j)) })
	return calls, peak, nil
}

// muxKernel times the scheduled steps on fresh outputs.
func (s *stream) muxKernel(pulls []op, calls []stepCall) (time.Duration, error) {
	m := s.newMuxStage(pulls)
	var acc uint64
	t0 := time.Now()
	for _, c := range calls {
		d, _, err := m.outs[c.j].Step(c.t, m.views[c.j])
		if err != nil {
			return 0, err
		}
		acc += d.Seq
	}
	d := time.Since(t0)
	sink += acc
	return d, nil
}

// oracleKernel is the closed-form FCFS output-queued departure time: the
// floor a per-slot shadow switch could be replaced by.
func (s *stream) oracleKernel() (time.Duration, error) {
	o := shadow.NewOracle(s.n)
	wrong := 0
	t0 := time.Now()
	for i, c := range s.cells {
		if o.Departure(c.Arrive, c.Flow.Out) != s.shadowDep[i] {
			wrong++
		}
	}
	d := time.Since(t0)
	if wrong != 0 {
		return 0, fmt.Errorf("shadow oracle kernel: %d departures differ from the stepped shadow switch", wrong)
	}
	return d, nil
}

// metricsKernel replays the recorder's calls in the harness's order within
// a slot: admissions, PPS departures, shadow departures.
func (s *stream) metricsKernel(ops []op, shadowCells []cell.Cell) (time.Duration, float64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	rec := metrics.NewRecorderSized(s.n)
	t0 := time.Now()
	for _, o := range ops {
		switch o.kind {
		case 0:
			rec.OfferCell()
			rec.AdmitCell()
		case 1:
			rec.PPSDepart(s.cells[o.seq])
			rec.OnTimeCell()
		default:
			rec.ShadowDepart(shadowCells[o.seq])
		}
	}
	rep := rec.Report()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if rep.Cells != uint64(len(s.cells)) {
		return 0, 0, fmt.Errorf("metrics kernel: matched %d of %d cells", rep.Cells, len(s.cells))
	}
	return d, float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(s.cells)), nil
}

// histKernel records every cell's total delay into one log-bucketed
// histogram, the recorder's innermost per-cell primitive.
func (s *stream) histKernel() (time.Duration, error) {
	h := obs.NewLogHist()
	t0 := time.Now()
	for _, c := range s.cells {
		h.Record(int64(c.Depart - c.Arrive))
	}
	d := time.Since(t0)
	sink += uint64(h.N())
	return d, nil
}

// runKernels replays one traced part through every kernel.
func runKernels(p part, tr *trace) (kernelTimes, error) {
	kt := kernelTimes{Part: p.label, Algorithm: p.cfg.Algorithm.Name, Cells: len(tr.stream)}
	switch {
	case !kernelable(p.cfg.Algorithm):
		kt.Skipped = "algorithm buffers at the input or reads the global log"
	case !tr.complete || len(tr.stream) == 0:
		kt.Skipped = "a recorded cell was dropped or expired at egress"
	}
	if kt.Skipped != "" {
		return kt, nil
	}
	s := &stream{n: p.cfg.N, k: p.cfg.K, rprime: p.cfg.RPrime, alg: p.cfg.Algorithm, cells: tr.stream, shadowDep: tr.shadowDep}
	for i, c := range s.cells {
		if c.Dispatch != c.Arrive || c.Depart == cell.None || s.shadowDep[i] == cell.None {
			return kt, fmt.Errorf("kernels: recorded cell %d is incomplete: %v", i, c)
		}
	}

	// Call orders, built once outside every timed loop.
	pulls := s.pullOrder()
	n := len(s.cells)
	storeOps, planeOps, recOps := make([]op, 0, 2*n), make([]op, 0, 2*n), make([]op, 0, 3*n)
	shadowCells := make([]cell.Cell, n)
	for i, c := range s.cells {
		q, out := uint32(i), uint32(c.Flow.Out)
		storeOps = append(storeOps, op{t: c.Dispatch, kind: 0, seq: q}, op{t: c.Depart, kind: 1, key: out, seq: q})
		planeOps = append(planeOps, op{t: c.Dispatch, kind: 0, seq: q}, op{t: c.AtOutput, kind: 1, key: out, seq: q})
		recOps = append(recOps, op{t: c.Arrive, kind: 0, seq: q}, op{t: c.Depart, kind: 1, key: out, seq: q}, op{t: s.shadowDep[i], kind: 2, key: out, seq: q})
		shadowCells[i] = cell.New(c.Seq, c.FlowSeq, c.Flow, c.Arrive)
		shadowCells[i].Depart = s.shadowDep[i]
	}
	sortOps(storeOps)
	sortOps(planeOps)
	sortOps(recOps)
	calls, peak, err := s.muxSchedule(pulls)
	if err != nil {
		return kt, err
	}
	kt.ReseqPeak = peak

	// demux and timing share a kernel: the algorithm's decisions need the
	// input gates seized, and the twin pass prices exactly those seizes.
	var gateRuns []time.Duration
	withGates, err := median(func() (time.Duration, error) {
		w, g, err := s.demuxKernel()
		gateRuns = append(gateRuns, g)
		return w, err
	})
	if err != nil {
		return kt, err
	}
	slices.Sort(gateRuns)
	gates := gateRuns[len(gateRuns)/2]
	outGates, err := median(func() (time.Duration, error) { return s.outGateKernel(pulls) })
	if err != nil {
		return kt, err
	}
	kt.Demux = s.perCell(withGates - gates)
	kt.Timing = s.perCell(gates + outGates)

	for _, k := range []struct {
		dst *float64
		fn  func() (time.Duration, error)
	}{
		{&kt.Store, func() (time.Duration, error) { return s.storeKernel(storeOps) }},
		{&kt.Plane, func() (time.Duration, error) { return s.planeKernel(planeOps) }},
		{&kt.Mux, func() (time.Duration, error) { return s.muxKernel(pulls, calls) }},
		{&kt.Oracle, s.oracleKernel},
		{&kt.Hist, s.histKernel},
		{&kt.Metrics, func() (time.Duration, error) {
			d, alloc, err := s.metricsKernel(recOps, shadowCells)
			kt.MetricsAllocBytes = alloc
			return d, err
		}},
	} {
		d, err := median(k.fn)
		if err != nil {
			return kt, err
		}
		*k.dst = s.perCell(d)
	}
	return kt, nil
}
