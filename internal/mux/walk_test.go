package mux_test

import (
	"testing"

	"ppsim/internal/adversary"
	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/mux"
)

// walkProbe is the eager pull policy, recording the emittable-set size
// before every insert into an output's emittable ring: the most links that
// insert's walk can follow.
type walkProbe struct {
	sizes []int
	// after is each buffer's emittable-set size when its last pull ended.
	after map[*mux.Buffer]int
}

// Pull implements mux.Policy as mux.Eager does. Inserts happen in two
// places: a pushed cell that is in order joins the ring here, and the
// emission after the pull (Buffer.PopEmittable) may release the popped
// cell's parked successor onto it. A release leaves the set as large as
// the pull left it (one popped, one inserted into a set one smaller), so
// the next pull finds it unchanged; without a release it finds it one
// smaller. A buffer with emittable cells is busy, so its output is stepped
// again the next slot.
func (w *walkProbe) Pull(t cell.Time, pv mux.PlaneView, buf *mux.Buffer) error {
	if last := w.after[buf]; last > 0 && buf.EmittableLen() == last {
		w.sizes = append(w.sizes, last-1)
	}
	refs, err := pv.PullBatch(t, pv.Eligible(t, nil), nil)
	for _, r := range refs {
		before := buf.EmittableLen()
		buf.Push(t, r)
		if buf.EmittableLen() > before {
			w.sizes = append(w.sizes, before)
		}
	}
	w.after[buf] = buf.EmittableLen()
	return err
}

// TestEmittableWalkBoundedUnderConcentration bounds the emittable ring's
// insert walk, which is O(emittable set) where a heap was O(log). It runs
// E4's scenario at its largest N = 128 (the steering adversary aligning all
// inputs on plane 1 of output 0, K = 4, r' = 2, round-robin dispatch), the
// suite's deepest concentration on one output, and asserts the mean and
// max set size at insert (DESIGN.md §13 records the figures).
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
	probe := &walkProbe{after: map[*mux.Buffer]int{}}
	cfg.Mux = probe
	res, err := harness.Run(cfg, rr, tr, harness.Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MaxRQD != n-1 {
		t.Fatalf("max RQD %d, E4 measures %d at N = %d: not E4's run", res.Report.MaxRQD, n-1, n)
	}
	// Every departed cell joined the emittable ring exactly once.
	if len(probe.sizes) != tr.Count() {
		t.Fatalf("recorded %d emittable inserts for %d cells", len(probe.sizes), tr.Count())
	}
	sum, peak := 0, 0
	for _, s := range probe.sizes {
		sum += s
		peak = max(peak, s)
	}
	mean := float64(sum) / float64(len(probe.sizes))
	t.Logf("%d emittable inserts: set size mean %.2f, max %d", len(probe.sizes), mean, peak)
	if mean > 0.25 || peak > 2 {
		t.Errorf("emittable set at insert: mean %.2f, max %d; want mean <= 0.25, max <= 2", mean, peak)
	}
}
