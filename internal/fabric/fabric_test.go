package fabric

import (
	"strings"
	"testing"
	"testing/quick"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/mux"
	"ppsim/internal/shadow"
	"ppsim/internal/traffic"
)

func rrFactory(gran demux.Granularity) func(demux.Env) (demux.Algorithm, error) {
	return func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, gran) }
}

func cpaFactory(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.MinAvail) }

// drive runs a finite source through a PPS (and a shadow switch fed the
// identical cells) until both drain, returning the PPS departures and the
// shadow departure slot per sequence number.
func drive(t *testing.T, p *PPS, src traffic.Source, maxSlots cell.Time) ([]cell.Cell, map[uint64]cell.Time) {
	t.Helper()
	st := cell.NewStamper()
	sh := shadow.New(p.Config().N)
	shadowDep := make(map[uint64]cell.Time)
	var deps, shDeps []cell.Cell
	var buf []traffic.Arrival
	for slot := cell.Time(0); slot < maxSlots; slot++ {
		if slot >= src.End() && p.Drained() && sh.Drained() {
			return deps, shadowDep
		}
		buf = src.Arrivals(slot, buf[:0])
		cells := make([]cell.Cell, 0, len(buf))
		for _, a := range buf {
			cells = append(cells, st.Stamp(cell.Flow{In: a.In, Out: a.Out}, slot))
		}
		var err error
		deps, err = p.Step(slot, cells, deps)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		shDeps = sh.Step(slot, cells, shDeps[:0])
		for _, d := range shDeps {
			shadowDep[d.Seq] = d.Depart
		}
	}
	t.Fatalf("switch did not drain within %d slots (backlog %d)", maxSlots, p.Backlog())
	return nil, nil
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{N: 0, K: 1, RPrime: 1},
		{N: 4, K: 0, RPrime: 1},
		{N: 4, K: 2, RPrime: 0},
		{N: 4, K: 2, RPrime: 1, BufferCap: -2},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
	good := Config{N: 5, K: 2, RPrime: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("figure-1 config rejected: %v", err)
	}
	if good.Speedup() != 1.0 {
		t.Errorf("Speedup = %f", good.Speedup())
	}
	if _, err := New(bad[0], rrFactory(demux.PerInput)); err == nil {
		t.Error("New must propagate validation errors")
	}
}

// TestConfigValidatePlaneLimit pins the one-word plane-set limit: K = 64 is
// the widest legal center stage, and K = 65 is rejected with an error that
// names the limit (no silent fallback to a scan path exists any more).
func TestConfigValidatePlaneLimit(t *testing.T) {
	if err := (Config{N: 128, K: demux.MaxPlanes, RPrime: 2}).Validate(); err != nil {
		t.Errorf("K=%d rejected: %v", demux.MaxPlanes, err)
	}
	err := (Config{N: 128, K: demux.MaxPlanes + 1, RPrime: 2}).Validate()
	if err == nil || !strings.Contains(err.Error(), "at most 64 planes") {
		t.Errorf("K=65 must be rejected naming the limit, got %v", err)
	}
}

func TestSingleCellTraversesInOneSlot(t *testing.T) {
	// The propagation-free accounting: a lone cell departs the PPS in its
	// arrival slot, exactly like the shadow switch.
	p, err := New(Config{N: 4, K: 2, RPrime: 2, CheckInvariants: true}, rrFactory(demux.PerInput))
	if err != nil {
		t.Fatal(err)
	}
	tr := traffic.NewTrace()
	tr.MustAdd(0, 1, 3)
	deps, shDep := drive(t, p, tr, 50)
	if len(deps) != 1 {
		t.Fatalf("departures = %d", len(deps))
	}
	d := deps[0]
	if d.Depart != 0 || d.Dispatch != 0 || d.AtOutput != 0 {
		t.Errorf("stamps: %v", d)
	}
	if shDep[d.Seq] != 0 {
		t.Errorf("shadow departure = %d", shDep[d.Seq])
	}
}

func TestConcentrationDelaysDepartures(t *testing.T) {
	// Fresh per-input round-robin pointers all start at plane 0, so d
	// cells from d distinct inputs all land on one plane: d cells to one
	// output in d consecutive slots depart r'-spaced — the Lemma 4
	// bottleneck — while the shadow departs them back-to-back.
	const rp, d = 3, 5
	p, err := New(Config{N: 8, K: 3, RPrime: rp, CheckInvariants: true}, rrFactory(demux.PerInput))
	if err != nil {
		t.Fatal(err)
	}
	tr := traffic.NewTrace()
	for i := 0; i < d; i++ {
		tr.MustAdd(cell.Time(i), cell.Port(i), 0)
	}
	deps, shDep := drive(t, p, tr, 200)
	if len(deps) != d {
		t.Fatalf("departures = %d", len(deps))
	}
	var maxRQD cell.Time
	for _, c := range deps {
		if rqd := c.Depart - shDep[c.Seq]; rqd > maxRQD {
			maxRQD = rqd
		}
	}
	want := cell.Time((d - 1) * (rp - 1)) // last cell crosses at (d-1)r', shadow at d-1
	if maxRQD != want {
		t.Errorf("max relative queuing delay = %d, want %d", maxRQD, want)
	}
}

func TestCPAZeroRelativeDelayAtSpeedupTwo(t *testing.T) {
	prop := func(seed int64) bool {
		const n, k, rp = 6, 6, 3 // S = 2
		p, err := New(Config{N: n, K: k, RPrime: rp, CheckInvariants: true}, cpaFactory)
		if err != nil {
			return false
		}
		demand := traffic.NewBernoulli(n, 0.55, 300, seed)
		// Shape to burstless per-output rate R so the comparison is the
		// paper's regime (CPA's guarantee holds for any admissible
		// traffic; burstless keeps the run short).
		reg := traffic.NewRegulator(n, 0, demand)
		st := cell.NewStamper()
		sh := shadow.New(n)
		shadowDep := make(map[uint64]cell.Time)
		var buf []traffic.Arrival
		var deps, shDeps []cell.Cell
		for slot := cell.Time(0); slot < 2000; slot++ {
			buf = reg.Arrivals(slot, nil)
			cells := make([]cell.Cell, 0, len(buf))
			for _, a := range buf {
				cells = append(cells, st.Stamp(cell.Flow{In: a.In, Out: a.Out}, slot))
			}
			var err error
			deps, err = p.Step(slot, cells, deps)
			if err != nil {
				return false
			}
			shDeps = sh.Step(slot, cells, shDeps[:0])
			for _, d := range shDeps {
				shadowDep[d.Seq] = d.Depart
			}
			if slot > 320 && p.Drained() && sh.Drained() {
				break
			}
		}
		if !p.Drained() {
			return false
		}
		for _, c := range deps {
			if c.Depart != shadowDep[c.Seq] {
				return false // CPA must mimic the FCFS OQ switch exactly
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestFlowOrderAndConservationUnderRandomTraffic(t *testing.T) {
	prop := func(seed int64, granRaw bool) bool {
		const n, k, rp = 4, 4, 2
		gran := demux.PerInput
		if granRaw {
			gran = demux.PerFlow
		}
		p, err := New(Config{N: n, K: k, RPrime: rp, CheckInvariants: true}, rrFactory(gran))
		if err != nil {
			return false
		}
		src := traffic.NewBernoulli(n, 0.6, 200, seed)
		st := cell.NewStamper()
		var buf []traffic.Arrival
		var deps []cell.Cell
		for slot := cell.Time(0); slot < 5000; slot++ {
			buf = src.Arrivals(slot, buf[:0])
			cells := make([]cell.Cell, 0, len(buf))
			for _, a := range buf {
				cells = append(cells, st.Stamp(cell.Flow{In: a.In, Out: a.Out}, slot))
			}
			var err error
			deps, err = p.Step(slot, cells, deps)
			if err != nil {
				return false // any invariant violation fails the property
			}
			if slot > 200 && p.Drained() {
				break
			}
		}
		// Everything departed exactly once.
		return p.Drained() && uint64(len(deps)) == st.Count()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestIyerMcKeownUpperBoundProperty pins the [15] upper bound: the
// fully-distributed per-flow dispatcher at S >= 2 never exceeds N * r'
// relative queuing delay, for random admissible traffic.
func TestIyerMcKeownUpperBoundProperty(t *testing.T) {
	prop := func(seed int64) bool {
		const n, k, rp = 6, 6, 3 // S = 2
		p, err := New(Config{N: n, K: k, RPrime: rp, CheckInvariants: true},
			func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerFlow) })
		if err != nil {
			return false
		}
		src := traffic.NewRegulator(n, 4, traffic.NewBernoulli(n, 0.8, 250, seed))
		st := cell.NewStamper()
		sh := shadow.New(n)
		shadowDep := map[uint64]cell.Time{}
		var worst cell.Time
		var buf []traffic.Arrival
		var deps, shDeps []cell.Cell
		ppsDep := map[uint64]cell.Time{}
		for slot := cell.Time(0); slot < 5000; slot++ {
			buf = src.Arrivals(slot, nil)
			cells := make([]cell.Cell, 0, len(buf))
			for _, a := range buf {
				cells = append(cells, st.Stamp(cell.Flow{In: a.In, Out: a.Out}, slot))
			}
			var err error
			deps, err = p.Step(slot, cells, deps[:0])
			if err != nil {
				return false
			}
			for _, d := range deps {
				ppsDep[d.Seq] = d.Depart
			}
			shDeps = sh.Step(slot, cells, shDeps[:0])
			for _, d := range shDeps {
				shadowDep[d.Seq] = d.Depart
			}
			if slot > 260 && p.Drained() && sh.Drained() {
				break
			}
		}
		if !p.Drained() {
			return false
		}
		for seq, pd := range ppsDep {
			if d := pd - shadowDep[seq]; d > worst {
				worst = d
			}
		}
		return worst <= cell.Time(n*rp) // N * R/r
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestBufferlessRejectsBufferingAlgorithm(t *testing.T) {
	p, err := New(Config{N: 2, K: 4, RPrime: 2, BufferCap: 0, CheckInvariants: true},
		func(e demux.Env) (demux.Algorithm, error) { return demux.NewBufferedCPA(e, 3, demux.MinAvail) })
	if err != nil {
		t.Fatal(err)
	}
	st := cell.NewStamper()
	c := st.Stamp(cell.Flow{In: 0, Out: 1}, 0)
	if _, err := p.Step(0, []cell.Cell{c}, nil); err == nil ||
		!strings.Contains(err.Error(), "bufferless") {
		t.Errorf("bufferless fabric must reject buffering: %v", err)
	}
}

func TestBufferCapEnforced(t *testing.T) {
	// BufferedCPA with lag 5 holds up to 5 cells; capacity 2 must trip.
	p, err := New(Config{N: 1, K: 4, RPrime: 2, BufferCap: 2, CheckInvariants: true},
		func(e demux.Env) (demux.Algorithm, error) { return demux.NewBufferedCPA(e, 5, demux.MinAvail) })
	if err != nil {
		t.Fatal(err)
	}
	st := cell.NewStamper()
	var stepErr error
	for slot := cell.Time(0); slot < 5 && stepErr == nil; slot++ {
		c := st.Stamp(cell.Flow{In: 0, Out: 0}, slot)
		_, stepErr = p.Step(slot, []cell.Cell{c}, nil)
	}
	if stepErr == nil || !strings.Contains(stepErr.Error(), "capacity") {
		t.Errorf("buffer capacity must be enforced: %v", stepErr)
	}
}

func TestArrivalValidation(t *testing.T) {
	p, _ := New(Config{N: 2, K: 2, RPrime: 1}, rrFactory(demux.PerInput))
	st := cell.NewStamper()
	// Wrong slot stamp.
	c := st.Stamp(cell.Flow{In: 0, Out: 0}, 5)
	if _, err := p.Step(0, []cell.Cell{c}, nil); err == nil {
		t.Error("mis-stamped arrival must be rejected")
	}
	// Two arrivals on one input.
	p2, _ := New(Config{N: 2, K: 2, RPrime: 1}, rrFactory(demux.PerInput))
	a := st.Stamp(cell.Flow{In: 0, Out: 0}, 0)
	b := st.Stamp(cell.Flow{In: 0, Out: 1}, 0)
	if _, err := p2.Step(0, []cell.Cell{a, b}, nil); err == nil {
		t.Error("two arrivals per input per slot must be rejected")
	}
	// Out-of-range port.
	p3, _ := New(Config{N: 2, K: 2, RPrime: 1}, rrFactory(demux.PerInput))
	d := st.Stamp(cell.Flow{In: 0, Out: 7}, 0)
	if _, err := p3.Step(0, []cell.Cell{d}, nil); err == nil {
		t.Error("out-of-range destination must be rejected")
	}
	// Non-monotone slots.
	p4, _ := New(Config{N: 2, K: 2, RPrime: 1}, rrFactory(demux.PerInput))
	p4.Step(3, nil, nil)
	if _, err := p4.Step(3, nil, nil); err == nil {
		t.Error("repeated slot must be rejected")
	}
}

func TestPlaneFailureSurfacesAsError(t *testing.T) {
	p, err := New(Config{N: 4, K: 2, RPrime: 2, CheckInvariants: true}, rrFactory(demux.PerInput))
	if err != nil {
		t.Fatal(err)
	}
	p.Plane(0).Fail()
	st := cell.NewStamper()
	// Round-robin starts at plane 0, so the first dispatch hits the
	// failed plane and the execution fails loudly instead of dropping.
	c := st.Stamp(cell.Flow{In: 0, Out: 0}, 0)
	if _, err := p.Step(0, []cell.Cell{c}, nil); err == nil {
		t.Error("dispatch to failed plane must error")
	}
}

func TestStaticPartitionSurvivesOtherGroupFailure(t *testing.T) {
	// Failure tolerance contrast (Section 3): with static partitioning,
	// inputs whose group excludes the failed plane are unaffected.
	p, err := New(Config{N: 4, K: 4, RPrime: 2, CheckInvariants: true},
		func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaticPartition(e, 2) })
	if err != nil {
		t.Fatal(err)
	}
	p.Plane(0).Fail() // group 0 = planes {0,1}, used by inputs 0 and 2
	tr := traffic.NewTrace()
	tr.MustAdd(0, 1, 0) // input 1 is in group 1 = planes {2,3}
	deps, _ := drive(t, p, tr, 50)
	if len(deps) != 1 {
		t.Errorf("unaffected input should still deliver, got %d departures", len(deps))
	}
}

func TestLazyMuxAlsoDeliversEverything(t *testing.T) {
	p, err := New(Config{N: 4, K: 4, RPrime: 2, Mux: mux.LazyFCFS{}, CheckInvariants: true},
		rrFactory(demux.PerInput))
	if err != nil {
		t.Fatal(err)
	}
	tr := traffic.NewTrace()
	for s := cell.Time(0); s < 20; s++ {
		tr.MustAdd(s, cell.Port(s%4), cell.Port((s+1)%4))
	}
	deps, _ := drive(t, p, tr, 500)
	if len(deps) != 20 {
		t.Errorf("lazy mux lost cells: %d of 20", len(deps))
	}
}

func TestPeakPlaneQueueTracksConcentration(t *testing.T) {
	// Distinct fresh inputs all dispatch to plane 0 (see
	// TestConcentrationDelaysDepartures), building a backlog there.
	p, _ := New(Config{N: 8, K: 2, RPrime: 2, CheckInvariants: true}, rrFactory(demux.PerInput))
	tr := traffic.NewTrace()
	for i := 0; i < 6; i++ {
		tr.MustAdd(cell.Time(i), cell.Port(i), 0)
	}
	drive(t, p, tr, 200)
	if p.PeakPlaneQueue() < 3 {
		t.Errorf("PeakPlaneQueue = %d, expected >= 3 under concentration", p.PeakPlaneQueue())
	}
}

func TestLogRecordsAllStages(t *testing.T) {
	p, _ := New(Config{N: 2, K: 2, RPrime: 1, CheckInvariants: true}, rrFactory(demux.PerInput))
	// Request the log before driving: recording starts when a reader
	// registers, so an unobserved run pays no logging cost.
	log := p.Log()
	tr := traffic.NewTrace()
	tr.MustAdd(0, 0, 1)
	drive(t, p, tr, 10)
	counts := map[demux.EventKind]int{}
	var cur demux.Cursor
	log.Read(&cur, 1000, func(e demux.Event) { counts[e.Kind]++ })
	if counts[demux.EvArrival] != 1 || counts[demux.EvDispatch] != 1 || counts[demux.EvXmit] != 1 {
		t.Errorf("log counts = %v", counts)
	}
}
