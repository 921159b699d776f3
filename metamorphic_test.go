package ppsim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"ppsim"
)

// FuzzMetamorphic judges the simulator from outside, through the public API
// only, by relations that hold for any switch obeying the model (MODEL.md,
// "Symmetries"). It decodes a run from bytes (any registered algorithm,
// N <= 16, K, r', an input-buffer bound, plane outages and cell loss under
// either fault policy, a trace) and asserts that Report is unchanged by:
//   - shifting the arrivals and the fault events by the same Δ slots;
//   - relabelling the output ports (Utilization, the one per-output
//     breakdown, is relabelled alike);
//   - widening an idle gap that starts once both switches have been drained
//     for max(u, r') slots (the inter-departure gap histogram excepted);
//   - under DropCount, replacing a plane failed before the first arrival by
//     a live plane that loses every cell (for an algorithm that is not
//     fault-aware);
//
// and that the stepped and the event core return the same Result for every
// one of those runs. A run the model rejects (an Abort-policy dispatch into
// a dead plane, a full input buffer) must fail in every variant.
func FuzzMetamorphic(f *testing.F) {
	var covered []metaRun
	for i := range ppsim.AlgorithmNames() {
		for _, s := range metaSeeds {
			data := append([]byte{byte(i)}, s...)
			f.Add(data)
			covered = append(covered, decodeMeta(data))
		}
	}
	algs, policies, buffered := map[string]bool{}, map[ppsim.FaultPolicy]bool{}, false
	for _, m := range covered {
		algs[m.cfg.Algorithm.Name] = true
		if len(m.outages) > 0 || m.loss != nil {
			policies[m.policy] = true
		}
		buffered = buffered || m.cfg.BufferCap != 0
	}
	if len(algs) != len(ppsim.AlgorithmNames()) || len(policies) != 2 || !buffered {
		f.Fatalf("seed corpus covers algorithms %v, fault policies %v, buffered inputs %v", algs, policies, buffered)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := decodeMeta(data)
		base := m.engines(t, "base", m.arrivals, m.events())

		identity := make([]int, m.cfg.N)
		for j := range identity {
			identity[j] = j
		}
		shifted := m.engines(t, "shifted", shiftArrivals(m.arrivals, m.shift), shiftEvents(m.events(), m.shift))
		sameReport(t, "time shift", base, shifted, identity)

		perm := rand.New(rand.NewSource(m.permSeed)).Perm(m.cfg.N)
		relabelled := make([]metaArrival, len(m.arrivals))
		for i, a := range m.arrivals {
			a.out = ppsim.Port(perm[a.out])
			relabelled[i] = a
		}
		permuted := m.engines(t, "relabelled", relabelled, m.events())
		sameReport(t, "output relabelling", base, permuted, perm)

		// A dead plane is a certain loss. Under DropCount a cell sent to
		// plane k is dropped, and holds its input line for r' slots, whether
		// k failed before the first arrival or is up and loses every cell;
		// only a fault-aware algorithm, which masks the dead plane, can tell.
		k := ppsim.PlaneID(m.permSeed % int64(m.cfg.K))
		certain := m
		certain.policy = ppsim.FaultDropCount
		certain.cfg.Algorithm.FaultAware = false
		certain.loss = make([]float64, m.cfg.K)
		copy(certain.loss, m.loss)
		certain.loss[k] = 0
		var others []metaEvent
		for _, e := range m.events() {
			if e.plane != k {
				others = append(others, e)
			}
		}
		failed := certain.engines(t, "dead plane", m.arrivals, append([]metaEvent{{t: 0, plane: k}}, others...))
		certain.loss[k] = 1
		lossy := certain.engines(t, "certain loss", m.arrivals, others)
		sameReport(t, "dead plane against certain loss", failed, lossy, identity)

		// Idle gap: run the arrivals and fault events before the cut alone to
		// find the slot D where both switches drain, then start the rest
		// max(u, r') slots after D, and again gap slots later.
		var before, after []metaArrival
		for _, a := range m.arrivals {
			if a.t < m.cut {
				before = append(before, a)
			} else {
				after = append(after, a)
			}
		}
		var evBefore, evAfter []metaEvent
		for _, e := range m.events() {
			if e.t < m.cut {
				evBefore = append(evBefore, e)
			} else {
				evAfter = append(evAfter, e)
			}
		}
		head, err := m.run(before, evBefore, ppsim.EngineStepped)
		if err != nil {
			return // the head never drains, so there is no idle stretch to widen
		}
		start := max(m.cut, head.Slots+max(m.cfg.Algorithm.U, ppsim.Time(m.cfg.RPrime)))
		variant := func(name string, d ppsim.Time) metaOutcome {
			return m.engines(t, name, append(shiftArrivals(after, d), before...), append(shiftEvents(evAfter, d), evBefore...))
		}
		near := variant("gap", start-m.cut)
		far := variant("wider gap", start-m.cut+m.gap)
		near.res.Report.Percentiles.Gap = ppsim.Report{}.Percentiles.Gap
		far.res.Report.Percentiles.Gap = ppsim.Report{}.Percentiles.Gap
		sameReport(t, "idle gap", near, far, nil)
	})
}

// metaSeeds are the seed corpus after the algorithm byte, which
// FuzzMetamorphic prepends for each registered algorithm. Field order is
// decodeMeta's: n, k, r', algorithm parameter, flags, fault byte, outages,
// loss, shift, permutation, cut, gap, then (slot, input, output) triples.
var metaSeeds = [][]byte{
	// N = 8, K = 4, r' = 2, bufferless, no faults: a dense 20-slot burst.
	append([]byte{6, 3, 1, 1, 0, 0, 0, 37, 3, 10, 100}, metaTrace(8, 20, 3)...),
	// N = 6, K = 6, r' = 2, unbounded input buffers, DropCount with a plane
	// outage over [4, 12) and loss on plane 1, fault-aware dispatch.
	append([]byte{4, 5, 1, 2, 1 | 2 | 4, 1 | 4 | 1<<3, 2, 4, 8, 3, 1, 0, 200, 9, 12, 5}, metaTrace(6, 24, 5)...),
	// N = 5, K = 4, r' = 1, buffer bound 3, Abort with plane 3 out over
	// [30, 50), fault-aware dispatch.
	append([]byte{3, 3, 0, 0, 1 | 3<<2, 1, 3, 30, 20, 1, 4, 17, 20, 50}, metaTrace(5, 40, 7)...),
	// N = 16, K = 8, r' = 4, buffer bound 1, DropCount with plane 5 failed
	// for good from slot 0, plane 2 out over [6, 9) and loss on plane 0.
	append([]byte{14, 7, 3, 3, 2 | 2<<2, 1 | 4, 5, 0, 0, 2, 6, 3, 1, 42, 7, 208, 77, 30, 2}, metaTrace(16, 36, 11)...),
	// N = 7, K = 3, r' = 1, bufferless, Abort with plane 1 out over [2, 40):
	// every algorithm that is not fault-aware may dispatch into it, and then
	// every variant must fail.
	append([]byte{5, 2, 0, 5, 0, 1, 1, 2, 38, 0, 99, 5, 15, 3}, metaTrace(7, 30, 13)...),
}

// metaTrace returns a deterministic (slot, input, output) byte stream of
// about one arrival per input per two slots.
func metaTrace(n, slots int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b []byte
	for t := 0; t < slots; t++ {
		for in := 0; in < n; in++ {
			if rng.Intn(2) == 0 {
				b = append(b, byte(t), byte(in), byte(rng.Intn(n)))
			}
		}
	}
	return b
}

type metaArrival struct {
	t       ppsim.Time
	in, out ppsim.Port
}

// metaOutage fails plane at from and, when to > from, recovers it at to.
type metaOutage struct {
	plane    ppsim.PlaneID
	from, to ppsim.Time
}

type metaEvent struct {
	t       ppsim.Time
	plane   ppsim.PlaneID
	recover bool
}

// metaRun is one decoded run and the parameters of its variants.
type metaRun struct {
	cfg      ppsim.Config
	policy   ppsim.FaultPolicy
	outages  []metaOutage
	loss     []float64 // per plane; nil when no plane loses cells
	lossSeed int64
	arrivals []metaArrival
	shift    ppsim.Time
	permSeed int64
	cut, gap ppsim.Time
}

// decodeMeta reads a run from data; bytes past the end read as zero, so
// every input decodes.
func decodeMeta(data []byte) metaRun {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	names := ppsim.AlgorithmNames()
	alg := ppsim.Algorithm{Name: names[next()%len(names)]}
	n, k, rp := 2+next()%15, 1+next()%8, 1+next()%4
	p := next()
	alg.U, alg.H, alg.Seed, alg.Capacity = ppsim.Time(1+p%4), 1.5+float64(p%3)/2, int64(p), []int{-1, 1, 2}[p%3]
	alg.D = k // the smallest divisor of K that is at least r', else K
	for d := k; d >= rp; d-- {
		if k%d == 0 {
			alg.D = d
		}
	}
	flags := next()
	alg.FaultAware = flags&1 != 0
	m := metaRun{policy: ppsim.FaultAbort}
	if flags&2 != 0 {
		m.policy = ppsim.FaultDropCount
	}
	bufcap := []int{0, -1, 1, 3}[flags>>2&3]
	if alg.InputBuffered() && bufcap == 0 {
		bufcap = -1
	}
	m.cfg = ppsim.Config{N: n, K: k, RPrime: int64(rp), BufferCap: bufcap, Algorithm: alg}
	faultByte := next()
	used := map[ppsim.PlaneID]bool{}
	for i := 0; i < faultByte%3; i++ {
		o := metaOutage{plane: ppsim.PlaneID(next() % k), from: ppsim.Time(next() % 64)}
		if length := ppsim.Time(next() % 32); length > 0 {
			o.to = o.from + length
		}
		if !used[o.plane] {
			used[o.plane] = true
			m.outages = append(m.outages, o)
		}
	}
	if m.policy == ppsim.FaultDropCount && faultByte&4 != 0 {
		m.loss = make([]float64, k)
		m.loss[faultByte>>3%k] = float64(1+next()%4) / 8
		m.lossSeed = int64(next())
	}
	m.shift = ppsim.Time(1 + (next()<<8|next())%2000)
	m.permSeed = int64(next())
	m.cut = ppsim.Time(next() % 64)
	m.gap = ppsim.Time(1 + next()*7)
	seen := map[metaArrival]bool{}
	for len(data) >= 3 && len(m.arrivals) < 256 {
		a := metaArrival{t: ppsim.Time(next() % 64), in: ppsim.Port(next() % n), out: ppsim.Port(next() % n)}
		if key := (metaArrival{t: a.t, in: a.in}); !seen[key] {
			seen[key] = true
			m.arrivals = append(m.arrivals, a)
		}
	}
	return m
}

// events lowers the outages to fail and recover events.
func (m metaRun) events() []metaEvent {
	var es []metaEvent
	for _, o := range m.outages {
		es = append(es, metaEvent{t: o.from, plane: o.plane})
		if o.to > o.from {
			es = append(es, metaEvent{t: o.to, plane: o.plane, recover: true})
		}
	}
	return es
}

func shiftArrivals(as []metaArrival, d ppsim.Time) []metaArrival {
	out := make([]metaArrival, len(as))
	for i, a := range as {
		a.t += d
		out[i] = a
	}
	return out
}

func shiftEvents(es []metaEvent, d ppsim.Time) []metaEvent {
	out := make([]metaEvent, len(es))
	for i, e := range es {
		e.t += d
		out[i] = e
	}
	return out
}

// run executes m's switch over the given arrivals and fault events. A run
// that has not drained 4096 slots after its last arrival or event fails
// (cells stranded behind a plane that never recovers), in every variant.
func (m metaRun) run(as []metaArrival, es []metaEvent, engine ppsim.Engine) (ppsim.Result, error) {
	tr := ppsim.NewTrace()
	last := ppsim.Time(0)
	for _, a := range as {
		if err := tr.Add(a.t, a.in, a.out); err != nil {
			return ppsim.Result{}, err
		}
		last = max(last, a.t)
	}
	sched := ppsim.NewFaultSchedule()
	for _, e := range es {
		last = max(last, e.t)
		if e.recover {
			sched.RecoverAt(e.plane, e.t)
		} else {
			sched.FailAt(e.plane, e.t)
		}
	}
	for k, q := range m.loss {
		if q > 0 {
			sched.WithLoss(ppsim.PlaneID(k), q).WithSeed(m.lossSeed)
		}
	}
	return ppsim.Run(m.cfg, tr, ppsim.Options{Faults: sched, FaultPolicy: m.policy, Engine: engine, MaxSlots: last + 4096})
}

type metaOutcome struct {
	res ppsim.Result
	err error
}

// engines runs one variant on both cores, checks that they agree, and
// returns the stepped outcome.
func (m metaRun) engines(t *testing.T, name string, as []metaArrival, es []metaEvent) metaOutcome {
	t.Helper()
	stepped, serr := m.run(as, es, ppsim.EngineStepped)
	event, eerr := m.run(as, es, ppsim.EngineEvent)
	if (serr == nil) != (eerr == nil) {
		t.Fatalf("%s run of %+v: stepped error %v, event error %v", name, m.cfg, serr, eerr)
	}
	stepped.Engine, stepped.EngineReason = "", ""
	event.Engine, event.EngineReason = "", ""
	if !reflect.DeepEqual(stepped, event) {
		t.Fatalf("%s run of %+v: the cores differ\nstepped %+v\nevent   %+v", name, m.cfg, stepped, event)
	}
	return metaOutcome{stepped, serr}
}

// sameReport fails unless a and b both failed, or both ran to equal
// Reports. perm, when non-nil, relabels a's outputs into b's for the
// per-output utilization.
func sameReport(t *testing.T, relation string, a, b metaOutcome, perm []int) {
	t.Helper()
	if (a.err == nil) != (b.err == nil) {
		t.Fatalf("%s: one run failed and the other did not: %v / %v", relation, a.err, b.err)
	}
	if a.err != nil {
		return
	}
	if !reflect.DeepEqual(a.res.Report, b.res.Report) {
		t.Fatalf("%s changed the report\nbefore %+v\nafter  %+v", relation, a.res.Report, b.res.Report)
	}
	if perm == nil {
		return
	}
	for j, u := range a.res.Utilization {
		if b.res.Utilization[perm[j]] != u {
			t.Fatalf("%s: output %d utilization %g, relabelled output %d has %g", relation, j, u, perm[j], b.res.Utilization[perm[j]])
		}
	}
}
