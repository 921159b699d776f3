package mux_test

import (
	"slices"
	"testing"

	"ppsim/internal/adversary"
	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/mux"
	"ppsim/internal/obs"
)

// TestEmittableWalkBoundedUnderConcentration bounds the emittable ring's
// insert walk, which is O(emittable set) where a heap was O(log). It runs
// E4's scenario at its largest N = 128 (the steering adversary aligning all
// inputs on plane 1 of output 0, K = 4, r' = 2, round-robin dispatch), the
// suite's deepest concentration on one output, and asserts the mean and
// max set size at insert (DESIGN.md §13 records the figures).
//
// The run is traced, and its pulls are replayed per output through a
// standalone buffer, as the benchmark's mux kernel replays them. Inserts
// happen in two places: a pushed cell that is in order joins the ring, and
// an emission may release the popped cell's parked successor onto it. The
// replay reads the set size before every push and after every emission, so
// it sees each insert's walk.
func TestEmittableWalkBoundedUnderConcentration(t *testing.T) {
	const n = 128
	rr := func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerInput) }
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, CheckInvariants: true}
	tr, err := adversary.Steering(adversary.SteeringSpec{
		Fabric: cfg, Factory: rr,
		Inputs: adversary.AllInputs(n), Out: 0, Plane: 1,
		ScrambleSlots: 24, ScrambleSeed: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRingSink(1 << 14)
	res, err := harness.Run(cfg, rr, tr, harness.Options{Validate: true, Tracer: obs.NewTracer(ring)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MaxRQD != n-1 {
		t.Fatalf("max RQD %d, E4 measures %d at N = %d: not E4's run", res.Report.MaxRQD, n-1, n)
	}
	evs := ring.Events()
	if res.TraceEvents != uint64(len(evs)) {
		t.Fatalf("ring kept %d of %d trace events", len(evs), res.TraceEvents)
	}

	// A cell's FlowSeq is its rank among its flow's arrivals; the trace
	// lists arrivals in Seq order. pulls[j] is output j's pulls in the
	// order the fabric made them.
	type flow struct{ in, out cell.Port }
	flowSeq := map[uint64]uint64{}
	arrived := map[flow]uint64{}
	depart := map[uint64]cell.Time{}
	pulls := make([][]obs.Event, n)
	for _, ev := range evs {
		switch ev.Kind {
		case obs.EvArrival:
			f := flow{ev.In, ev.Out}
			flowSeq[ev.Seq] = arrived[f]
			arrived[f]++
		case obs.EvMuxPull:
			pulls[ev.Out] = append(pulls[ev.Out], ev)
		case obs.EvDepart:
			depart[ev.Seq] = ev.T
		}
	}

	var sizes []int
	departed := 0
	for j, ps := range pulls {
		if len(ps) == 0 {
			continue
		}
		s := cell.NewStore(1)
		buf := mux.StandaloneBuffer(s, n)
		for slot, i := ps[0].T, 0; ; slot++ {
			for ; i < len(ps) && ps[i].T == slot; i++ {
				c := cell.New(ps[i].Seq, flowSeq[ps[i].Seq], cell.Flow{In: ps[i].In, Out: cell.Port(j)}, 0)
				before := buf.EmittableLen()
				buf.Push(slot, s.Put(0, c))
				if buf.EmittableLen() > before {
					sizes = append(sizes, before)
				}
			}
			before := buf.EmittableLen()
			if c, ok := buf.PopEmittable(); ok {
				if depart[c.Seq] != slot {
					t.Fatalf("replay departed cell %d at slot %d, the run at %d", c.Seq, slot, depart[c.Seq])
				}
				departed++
				// A release leaves the set as large as the pop found it: the
				// released cell walked a set one smaller.
				if buf.EmittableLen() == before {
					sizes = append(sizes, before-1)
				}
			}
			if buf.Len() == 0 {
				if i == len(ps) {
					break
				}
				slot = ps[i].T - 1 // an empty output idles until its next pull
			}
		}
	}
	if departed != tr.Count() {
		t.Fatalf("replay departed %d of %d cells", departed, tr.Count())
	}
	// Every departed cell joined the emittable ring exactly once.
	if len(sizes) != tr.Count() {
		t.Fatalf("recorded %d emittable inserts for %d cells", len(sizes), tr.Count())
	}
	sum := 0
	for _, s := range sizes {
		sum += s
	}
	mean := float64(sum) / float64(len(sizes))
	peak := slices.Max(sizes)
	t.Logf("%d emittable inserts: set size mean %.2f, max %d", len(sizes), mean, peak)
	if mean > 0.25 || peak > 2 {
		t.Errorf("emittable set at insert: mean %.2f, max %d; want mean <= 0.25, max <= 2", mean, peak)
	}
}
