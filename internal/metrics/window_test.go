package metrics

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/obs"
	"ppsim/internal/stats"
)

// recordKind names the four ways a cell's fate reaches the recorder.
type recordKind int

const (
	recShadow recordKind = iota
	recDepart
	recDrop
	recExpired
)

type record struct {
	kind recordKind
	c    cell.Cell
}

func (r *Recorder) apply(e record) {
	switch e.kind {
	case recShadow:
		r.ShadowDepart(e.c)
	case recDepart:
		r.PPSDepart(e.c)
	case recDrop:
		r.PPSDrop(e.c)
	case recExpired:
		r.PPSExpired(e.c)
	}
}

// tableReport is the reference the windowed Recorder is checked against: the
// join done the obvious way, with one table entry for every cell ever seen
// and every RQD sample retained, over the same records in the same order.
// It also returns the widest in-flight sequence span the order produced.
func tableReport(records []record) (Report, uint64) {
	shadowAt := map[uint64]cell.Time{}
	ppsAt := map[uint64]cell.Time{} // departures only
	fated := map[uint64]int{}       // fates recorded per Seq (2 = settled)
	type extremes struct{ pps, sh minmax }
	flows := map[cell.Flow]*extremes{}
	flow := func(f cell.Flow) *extremes {
		if flows[f] == nil {
			flows[f] = &extremes{}
		}
		return flows[f]
	}
	lastDepart := map[cell.Port]cell.Time{}
	delays := obs.NewDelaySet()
	var input, plane, output stats.Summary
	var rep Report
	bump := func(s []uint64, i int) []uint64 {
		for len(s) <= i {
			s = append(s, 0)
		}
		s[i]++
		return s
	}
	var base, hi, span uint64
	for _, e := range records {
		c := e.c
		switch e.kind {
		case recShadow:
			shadowAt[c.Seq] = c.Depart
			flow(c.Flow).sh.add(c.Depart - c.Arrive)
		case recDepart:
			ppsAt[c.Seq] = c.Depart
			flow(c.Flow).pps.add(c.Depart - c.Arrive)
			input.Add(int64(c.Dispatch - c.Arrive))
			plane.Add(int64(c.AtOutput - c.Dispatch))
			output.Add(int64(c.Depart - c.AtOutput))
			delays.Demux.Record(int64(c.Dispatch - c.Arrive))
			delays.Plane.Record(int64(c.AtOutput - c.Dispatch))
			delays.Reseq.Record(int64(c.Depart - c.AtOutput))
			delays.Total.Record(int64(c.Depart - c.Arrive))
			if last, ok := lastDepart[c.Flow.Out]; ok {
				delays.Gap.Record(int64(c.Depart - last))
			}
			lastDepart[c.Flow.Out] = c.Depart
		case recDrop:
			rep.Drops++
			rep.DropsPerPlane = bump(rep.DropsPerPlane, int(c.Via))
			rep.DropsPerInput = bump(rep.DropsPerInput, int(c.Flow.In))
		case recExpired:
			rep.ExpiredReseq++
		}
		fated[c.Seq]++
		hi = max(hi, c.Seq+1)
		span = max(span, hi-base)
		for base < hi && fated[base] == 2 {
			base++
		}
	}
	var rqd stats.Summary
	for seq, pd := range ppsAt {
		d := pd - shadowAt[seq]
		rqd.Add(int64(d))
		delays.RQD.Record(int64(d))
		if rep.Cells == 0 || d > rep.MaxRQD {
			rep.MaxRQD = d
		}
		rep.Cells++
	}
	rep.MeanRQD = rqd.Mean()
	rep.P50RQD = cell.Time(rqd.Percentile(50))
	rep.P99RQD = cell.Time(rqd.Percentile(99))
	rep.P999RQD = cell.Time(rqd.Percentile(99.9))
	rep.Percentiles = delays.Quantiles()
	rep.MeanInputWait, rep.MaxInputWait = input.Mean(), cell.Time(input.Max())
	rep.MeanPlaneWait, rep.MaxPlaneWait = plane.Mean(), cell.Time(plane.Max())
	rep.MeanOutputWait, rep.MaxOutputWait = output.Mean(), cell.Time(output.Max())
	for _, x := range flows {
		if x.pps.n == 0 {
			continue
		}
		rep.Flows++
		rep.MaxPPSDelay = max(rep.MaxPPSDelay, x.pps.max)
		rep.MaxPPSJitter = max(rep.MaxPPSJitter, x.pps.jitter())
		rep.RDJ = max(rep.RDJ, x.pps.jitter()-x.sh.jitter())
		rep.MaxShadowDelay = max(rep.MaxShadowDelay, x.sh.max)
	}
	return rep, span
}

// randomRecords builds one run's worth of records — every cell departs the
// shadow, and departs, is dropped by or expires in the PPS, some ahead of
// the reference (negative RQD) — and interleaves them: each record is
// released at its Seq plus a random lag below the given bound for its side,
// so a small bound slides a narrow window (ring wrap) and a large one holds
// many cells open at once (ring growth). shadowLag 1 is the harness order,
// shadow fate first at arrival; ppsLag 1 is the replica's order for cells
// that beat the reference.
func randomRecords(rng *rand.Rand, cells, shadowLag, ppsLag int) []record {
	type keyed struct {
		at int
		record
	}
	var all []keyed
	for seq := 0; seq < cells; seq++ {
		f := cell.Flow{In: cell.Port(rng.Intn(3)), Out: cell.Port(rng.Intn(3))}
		arrive := cell.Time(seq / 2)
		sh := cell.New(uint64(seq), 0, f, arrive)
		sh.Depart = arrive + cell.Time(rng.Intn(6))
		all = append(all, keyed{seq + rng.Intn(shadowLag), record{recShadow, sh}})

		c := cell.New(uint64(seq), 0, f, arrive)
		c.Dispatch = arrive + cell.Time(rng.Intn(3))
		c.AtOutput = c.Dispatch + cell.Time(1+rng.Intn(4))
		c.Depart = c.AtOutput + cell.Time(rng.Intn(5))
		kind := recDepart
		switch rng.Intn(8) {
		case 0:
			kind, c.Via = recDrop, cell.Plane(rng.Intn(4))
		case 1:
			kind = recExpired
		}
		all = append(all, keyed{seq + rng.Intn(ppsLag), record{kind, c}})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	records := make([]record, len(all))
	for i, k := range all {
		records[i] = k.record
	}
	return records
}

// TestWindowedJoinMatchesTables is the equivalence the recorder rests on: in
// whichever order the two switches report, with the ring wrapping many times
// over or forced to grow from two entries, the Report is the one full
// per-cell tables give — and the ring never holds more than the widest
// in-flight span the order produced.
func TestWindowedJoinMatchesTables(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, lag := range []struct{ shadow, pps int }{
		{1, 1}, {1, 2}, {1, 40}, {1, 700}, // shadow first: the harness
		{2, 1}, {40, 1}, {700, 1}, // PPS first
		{3, 3}, {60, 60}, {900, 900}, // either
	} {
		for trial := 0; trial < 8; trial++ {
			name := fmt.Sprintf("shadow<%d/pps<%d/#%d", lag.shadow, lag.pps, trial)
			records := randomRecords(rng, 1500, lag.shadow, lag.pps)
			r := newRecorderRing(2)
			for _, e := range records {
				r.apply(e)
			}
			want, span := tableReport(records)
			if got := r.Report(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: windowed report diverges from the tables\n got: %+v\nwant: %+v", name, got, want)
			}
			ring := uint64(2)
			for ring < span {
				ring *= 2
			}
			if uint64(len(r.ring)) != ring {
				t.Errorf("%s: ring holds %d entries for a widest in-flight span of %d, want %d",
					name, len(r.ring), span, ring)
			}
		}
	}
}

// TestDoubleRecordPanics covers every "recorded twice" guard for a cell
// still in the window and for one already retired from it — with the ring
// wrapped past the retired cell's entry, so only base can tell.
func TestDoubleRecordPanics(t *testing.T) {
	f := cell.Flow{}
	const retired, live = 3, 9
	fateOf := func(seq uint64) cell.Cell {
		c := dep(seq, seq, f, 0, 1)
		c.Via = 0 // a drop names its plane
		return c
	}
	for _, tc := range []struct {
		name  string
		first recordKind // the live cell's one recorded fate
		seq   uint64
		again recordKind
	}{
		{"shadow/live", recShadow, live, recShadow},
		{"depart/live", recDepart, live, recDepart},
		{"drop/live", recDrop, live, recDepart},
		{"expired/live", recDepart, live, recExpired},
		{"shadow/retired", recShadow, retired, recShadow},
		{"depart/retired", recShadow, retired, recDepart},
		{"drop/retired", recShadow, retired, recDrop},
		{"expired/retired", recShadow, retired, recExpired},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRecorderRing(4)
			for seq := uint64(0); seq < live; seq++ {
				r.ShadowDepart(dep(seq, seq, f, 0, 0))
				r.PPSDepart(dep(seq, seq, f, 0, 1))
			}
			r.apply(record{tc.first, fateOf(live)})
			if r.base != live || r.hi != live+1 {
				t.Fatalf("window = [%d, %d), want [%d, %d)", r.base, r.hi, live, live+1)
			}
			defer func() {
				if recover() == nil {
					t.Error("second record of the same fate accepted")
				}
			}()
			r.apply(record{tc.again, fateOf(tc.seq)})
		})
	}
}

// TestRQDWindow pins what the front-RQD probe relies on: a cell that beat
// the reference reads as not yet joined, a dropped or expired one never
// joins, and a cell retired by its PPS departure still answers — across a
// ring growth too — until a later cell reuses its entry.
func TestRQDWindow(t *testing.T) {
	f := cell.Flow{}
	r := newRecorderRing(2)
	for seq := uint64(0); seq < 6; seq++ {
		r.ShadowDepart(dep(seq, seq, f, 0, cell.Time(seq)+2))
	}
	if _, ok := r.RQD(0); ok {
		t.Error("RQD answered before the PPS fate was known")
	}
	r.PPSDepart(dep(0, 0, f, 0, 7)) // retires cell 0
	r.PPSDepart(dep(1, 1, f, 0, 1)) // ahead of the reference (due at 3)
	r.PPSDrop(drop(2, 2, f, 0, 0))
	r.PPSExpired(dep(3, 3, f, 0, 9))
	if r.base != 4 {
		t.Fatalf("base = %d, want 4 cells retired", r.base)
	}
	check := func(when string) {
		t.Helper()
		if q, ok := r.RQD(0); !ok || q != 5 {
			t.Errorf("%s: RQD(retired cell) = %d, %v; want 5, true", when, q, ok)
		}
		for seq := uint64(1); seq < 7; seq++ {
			if q, ok := r.RQD(seq); ok {
				t.Errorf("%s: RQD(%d) = %d, true; want not joined", when, seq, q)
			}
		}
	}
	check("after retirement")
	// The PPS reports a cell far ahead first (the replica's order): the
	// window [4, 21) no longer fits and the ring grows under the retired
	// entries.
	r.PPSDepart(dep(20, 20, f, 0, 30))
	if len(r.ring) != 32 {
		t.Fatalf("ring = %d entries, want 32", len(r.ring))
	}
	check("after growth")
	r.PPSDepart(dep(32, 32, f, 0, 40)) // reuses cell 0's entry
	if _, ok := r.RQD(0); ok {
		t.Error("RQD answered from a ring entry a later cell reused")
	}
}

// TestRecorderSteadyStateAllocFree is the recorder-only allocation guard:
// once a fixed flow set, the in-flight window and the RQD count table are
// warm, a million further shadow/PPS pairs — the harness order, 64 cells in
// flight — must not touch the heap.
func TestRecorderSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; guard only meaningful on plain builds")
	}
	const n, inFlight, batch = 8, 64, 1024
	r := NewRecorderSized(n)
	seq := uint64(0)
	pair := func() {
		f := cell.Flow{In: cell.Port(seq % n), Out: cell.Port(seq / n % n)}
		at := cell.Time(seq / n)
		sh := cell.New(seq, 0, f, at)
		sh.Depart = at + cell.Time(seq%3)
		r.ShadowDepart(sh)
		if seq >= inFlight {
			old := seq - inFlight
			c := cell.New(old, 0, cell.Flow{In: cell.Port(old % n), Out: cell.Port(old / n % n)}, cell.Time(old/n))
			c.Dispatch, c.AtOutput, c.Depart = c.Arrive, c.Arrive+1, c.Arrive+1+cell.Time(old%7)
			r.PPSDepart(c)
		}
		seq++
	}
	for seq < 4*batch {
		pair()
	}
	allocs := testing.AllocsPerRun(1024, func() {
		for i := 0; i < batch; i++ {
			pair()
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state recording allocates: %.2f allocs per %d pairs, want 0", allocs, batch)
	}
	if len(r.ring) != fateRingCap {
		t.Errorf("ring grew to %d entries with %d cells in flight", len(r.ring), inFlight)
	}
}
