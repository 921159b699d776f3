package metrics

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ppsim/internal/cell"
)

func dep(seq, flowSeq uint64, f cell.Flow, arrive, depart cell.Time) cell.Cell {
	c := cell.New(seq, flowSeq, f, arrive)
	c.Depart = depart
	return c
}

func TestRQDComputation(t *testing.T) {
	r := NewRecorder()
	f := cell.Flow{In: 0, Out: 0}
	// Cell 0: shadow departs at 0, PPS at 4 -> RQD 4.
	r.ShadowDepart(dep(0, 0, f, 0, 0))
	r.PPSDepart(dep(0, 0, f, 0, 4))
	// Cell 1: PPS first (order independence), RQD -1 (overtaking).
	r.PPSDepart(dep(1, 1, f, 1, 1))
	r.ShadowDepart(dep(1, 1, f, 1, 2))
	if r.Matched() != 2 {
		t.Fatalf("Matched = %d", r.Matched())
	}
	rep := r.Report()
	if rep.MaxRQD != 4 {
		t.Errorf("MaxRQD = %d, want 4", rep.MaxRQD)
	}
	if rep.MeanRQD != 1.5 {
		t.Errorf("MeanRQD = %f, want 1.5", rep.MeanRQD)
	}
	if rep.Cells != 2 || rep.Flows != 1 {
		t.Errorf("Cells/Flows = %d/%d", rep.Cells, rep.Flows)
	}
	if rep.MaxPPSDelay != 4 || rep.MaxShadowDelay != 1 {
		t.Errorf("MaxDelay pps=%d shadow=%d", rep.MaxPPSDelay, rep.MaxShadowDelay)
	}
}

func TestJitterComputation(t *testing.T) {
	r := NewRecorder()
	f := cell.Flow{In: 1, Out: 2}
	// Shadow delays: 0 and 1 -> jitter 1. PPS delays: 0 and 7 -> jitter 7.
	r.ShadowDepart(dep(0, 0, f, 0, 0))
	r.ShadowDepart(dep(1, 1, f, 5, 6))
	r.PPSDepart(dep(0, 0, f, 0, 0))
	r.PPSDepart(dep(1, 1, f, 5, 12))
	rep := r.Report()
	if rep.MaxPPSJitter != 7 {
		t.Errorf("MaxPPSJitter = %d, want 7", rep.MaxPPSJitter)
	}
	if rep.RDJ != 6 {
		t.Errorf("RDJ = %d, want 6", rep.RDJ)
	}
}

func TestSingleCellFlowHasZeroJitter(t *testing.T) {
	r := NewRecorder()
	f := cell.Flow{In: 0, Out: 1}
	r.ShadowDepart(dep(0, 0, f, 0, 0))
	r.PPSDepart(dep(0, 0, f, 0, 9))
	rep := r.Report()
	if rep.RDJ != 0 || rep.MaxPPSJitter != 0 {
		t.Errorf("single-cell jitter should be 0: RDJ=%d jitter=%d", rep.RDJ, rep.MaxPPSJitter)
	}
}

func TestReportPanicsOnUnmatched(t *testing.T) {
	r := NewRecorder()
	r.ShadowDepart(dep(0, 0, cell.Flow{}, 0, 0))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unmatched departures")
		}
	}()
	r.Report()
}

func TestDoubleDepartPanics(t *testing.T) {
	r := NewRecorder()
	c := dep(0, 0, cell.Flow{}, 0, 0)
	r.ShadowDepart(c)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for duplicate departure")
		}
	}()
	r.ShadowDepart(c)
}

func TestReportString(t *testing.T) {
	r := NewRecorder()
	r.ShadowDepart(dep(0, 0, cell.Flow{}, 0, 0))
	r.PPSDepart(dep(0, 0, cell.Flow{}, 0, 3))
	s := r.Report().String()
	if !strings.Contains(s, "maxRQD=3") {
		t.Errorf("String = %q", s)
	}
}

func TestStageDecomposition(t *testing.T) {
	r := NewRecorder()
	f := cell.Flow{In: 0, Out: 0}
	c := cell.New(0, 0, f, 10)
	c.Dispatch = 13 // 3 slots in the input buffer
	c.AtOutput = 20 // 7 slots in the plane
	c.Depart = 22   // 2 slots resequencing
	r.PPSDepart(c)
	sh := dep(0, 0, f, 10, 11)
	r.ShadowDepart(sh)
	rep := r.Report()
	if rep.MeanInputWait != 3 || rep.MeanPlaneWait != 7 || rep.MeanOutputWait != 2 {
		t.Errorf("stage means = %f/%f/%f, want 3/7/2",
			rep.MeanInputWait, rep.MeanPlaneWait, rep.MeanOutputWait)
	}
	if rep.MaxInputWait != 3 || rep.MaxPlaneWait != 7 || rep.MaxOutputWait != 2 {
		t.Errorf("stage maxima = %d/%d/%d, want 3/7/2",
			rep.MaxInputWait, rep.MaxPlaneWait, rep.MaxOutputWait)
	}
	// Stage sum equals the total PPS delay.
	if got := rep.MeanInputWait + rep.MeanPlaneWait + rep.MeanOutputWait; got != 12 {
		t.Errorf("stage sum %f != total delay 12", got)
	}
}

func TestStageDecompositionSkipsUnstamped(t *testing.T) {
	// Cells without intermediate stamps (e.g. a foreign switch) must not
	// poison the stage summaries.
	r := NewRecorder()
	f := cell.Flow{In: 0, Out: 0}
	r.PPSDepart(dep(0, 0, f, 0, 5)) // no Dispatch/AtOutput stamps
	r.ShadowDepart(dep(0, 0, f, 0, 0))
	rep := r.Report()
	if rep.MeanInputWait != 0 || rep.MaxPlaneWait != 0 {
		t.Errorf("unstamped cells leaked into stage stats: %+v", rep)
	}
}

func TestP99(t *testing.T) {
	r := NewRecorder()
	f := cell.Flow{In: 0, Out: 0}
	for i := uint64(0); i < 100; i++ {
		d := cell.Time(1)
		if i == 99 {
			d = 50
		}
		r.ShadowDepart(dep(i, i, f, cell.Time(i*10), cell.Time(i*10)))
		r.PPSDepart(dep(i, i, f, cell.Time(i*10), cell.Time(i*10)+d))
	}
	rep := r.Report()
	if rep.P99RQD != 1 {
		t.Errorf("P99RQD = %d, want 1", rep.P99RQD)
	}
	if rep.MaxRQD != 50 {
		t.Errorf("MaxRQD = %d, want 50", rep.MaxRQD)
	}
}

// TestSizedRecorderAllocatesNoFlowTable: a recorder for the N = 1024
// headline geometry allocates nothing per possible flow before its first
// one. A dense id table of 1 M entries is 4 MiB and fails the guard.
func TestSizedRecorderAllocatesNoFlowTable(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; guard only meaningful on plain builds")
	}
	const n, budget = 1024, 64 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	NewRecorderSized(n)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Errorf("NewRecorderSized(%d) allocated %d bytes before its first flow, want < %d", n, got, budget)
	}
}

// TestRecorderOnStamperIndex: over the Stamper's index the recorder's record
// for a cell sits at its FlowID - 1, flows the Stamper minted but the
// recorder never saw cost an empty record and count for nothing, and a flow
// the recorder sees first (an unstamped cell) takes the next id, which the
// Stamper then honours.
func TestRecorderOnStamperIndex(t *testing.T) {
	st := cell.NewStamperSized(4)
	r := NewRecorderOn(st.Flows(), 4)
	a := st.Stamp(cell.Flow{In: 0, Out: 1}, 0)
	silent := st.ID(cell.Flow{In: 2, Out: 3}) // minted, but no cell departs on it
	foreign := cell.New(1, 0, cell.Flow{In: 3, Out: 0}, 0)
	for _, c := range []cell.Cell{a, foreign} {
		c.Depart = c.Arrive + 2
		r.ShadowDepart(c)
		c.Depart = c.Arrive + 5
		r.PPSDepart(c)
	}
	if got := st.Flows().Len(); got != 3 {
		t.Fatalf("shared index holds %d flows, want 3 (two minted by the Stamper, one foreign)", got)
	}
	if id, _ := st.Flows().Find(foreign.Flow); id != 3 {
		t.Fatalf("foreign flow got id %d, want 3", id)
	}
	if rec := r.stats.At(int(a.FlowID) - 1); rec.pps.max != 5 || rec.sh.max != 2 {
		t.Errorf("record at FlowID-1 = %+v, want PPS delay 5 and shadow delay 2", *rec)
	}
	if rec := r.stats.At(int(silent) - 1); rec.pps.seen() || rec.sh.seen() {
		t.Errorf("silent flow's record %+v is not empty", *rec)
	}
	if c := st.Stamp(cell.Flow{In: 1, Out: 1}, 1); c.FlowID != 4 || c.FlowSeq != 0 {
		t.Errorf("stamp after the foreign flow: FlowID %d FlowSeq %d, want 4 and 0", c.FlowID, c.FlowSeq)
	}
	if rep := r.Report(); rep.Flows != 2 || rep.Cells != 2 {
		t.Errorf("Report: %d flows, %d cells; want 2 and 2", rep.Flows, rep.Cells)
	}
}

// TestStampedAndUnstampedReportsAgree feeds three recorders the same
// departures: the stamped cells over the Stamper's index (the recorder
// reads each cell's FlowID); the same cells with FlowID zeroed over an
// index of its own (it looks each flow up by (In, Out), minting ids in the
// order it first sees them); and, over an index of its own, stamped PPS
// departures with unstamped shadow ones, the mix the benchmark's recorder
// kernel replays (it must look the stamped ones up too: the Stamper's ids
// are not its own). The Reports are DeepEqual.
func TestStampedAndUnstampedReportsAgree(t *testing.T) {
	const n = 4
	st := cell.NewStamperSized(n)
	rng := rand.New(rand.NewSource(3))
	var shs, ppss []cell.Cell
	for s := cell.Time(0); s < 200; s++ {
		for in := 0; in < n; in++ {
			if rng.Intn(3) == 0 {
				continue
			}
			out := rng.Intn(n)
			c := st.Stamp(cell.Flow{In: cell.Port(in), Out: cell.Port(out)}, s)
			c.Dispatch, c.AtOutput = s+cell.Time(rng.Intn(2)), s+2+cell.Time(rng.Intn(3))
			// Each flow gets its own jitter in each switch, so a flow's PPS
			// record paired with another flow's shadow record moves RDJ.
			sh, pps := c, c
			sh.Depart = s + cell.Time(rng.Intn(1+(in*n+out)%7))
			pps.Depart = c.AtOutput + cell.Time(rng.Intn(1+(in+3*out)%5))
			shs, ppss = append(shs, sh), append(ppss, pps)
		}
	}
	stamped := NewRecorderOn(st.Flows(), n)
	unstamped, mixed := NewRecorderSized(n), NewRecorderSized(n)
	for i := range shs {
		stamped.ShadowDepart(shs[i])
		stamped.PPSDepart(ppss[i])
		mixed.PPSDepart(ppss[i])
	}
	for i := range shs {
		sh, pps := shs[i], ppss[i]
		sh.FlowID, pps.FlowID = 0, 0
		unstamped.PPSDepart(pps)
		unstamped.ShadowDepart(sh)
	}
	// The mixed recorder meets the flows in another order than the Stamper.
	for i := len(shs) - 1; i >= 0; i-- {
		sh := shs[i]
		sh.FlowID = 0
		mixed.ShadowDepart(sh)
	}
	want := stamped.Report()
	if want.Flows == 0 || want.RDJ == 0 {
		t.Fatalf("degenerate run: %v", want)
	}
	for name, r := range map[string]*Recorder{"unstamped": unstamped, "mixed": mixed} {
		if got := r.Report(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s cells report\n%v\nstamped cells report\n%v", name, got, want)
		}
	}
}
