package demux

import (
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/timing"
)

// fakeEnv is a minimal fabric stand-in for unit-testing algorithms.
type fakeEnv struct {
	n, k  int
	rp    int64
	gates *timing.Matrix
	log   Log
}

func newFakeEnv(n, k int, rp int64) *fakeEnv {
	return &fakeEnv{n: n, k: k, rp: rp, gates: timing.NewMatrix(n, k, rp)}
}

func (e *fakeEnv) Ports() int    { return e.n }
func (e *fakeEnv) Planes() int   { return e.k }
func (e *fakeEnv) RPrime() int64 { return e.rp }
func (e *fakeEnv) InputGateFreeAt(in cell.Port, k cell.Plane) cell.Time {
	return e.gates.Gate(int(in), int(k)).FreeAt()
}
func (e *fakeEnv) FreeGateMask(in cell.Port, t cell.Time) uint64 {
	var m uint64
	for k := 0; k < e.k; k++ {
		if e.InputGateFreeAt(in, cell.Plane(k)) <= t {
			m |= 1 << uint(k)
		}
	}
	return m
}
func (e *fakeEnv) Log() *Log { return &e.log }

// exec runs one slot of the algorithm and seizes gates like the fabric.
func exec(t *testing.T, e *fakeEnv, a Algorithm, slot cell.Time, arrivals ...cell.Cell) []Send {
	t.Helper()
	sends, err := a.Slot(slot, arrivals)
	if err != nil {
		t.Fatalf("slot %d: %v", slot, err)
	}
	for _, s := range sends {
		if err := e.gates.Gate(int(s.Cell.Flow.In), int(s.Plane)).Seize(slot); err != nil {
			t.Fatalf("slot %d: input constraint violated: %v", slot, err)
		}
		e.log.Append(Event{T: slot, Kind: EvDispatch, In: s.Cell.Flow.In, Out: s.Cell.Flow.Out, K: s.Plane})
	}
	// Slot's return value is only valid until the next Slot call (the
	// algorithms reuse the backing array); tests hold results across
	// slots, so hand back a copy.
	return append([]Send(nil), sends...)
}

func arr(st *cell.Stamper, t cell.Time, in, out cell.Port) cell.Cell {
	return st.Stamp(cell.Flow{In: in, Out: out}, t)
}

func TestLogCursorStaleness(t *testing.T) {
	var l Log
	for i := cell.Time(0); i < 5; i++ {
		l.Append(Event{T: i, Kind: EvArrival})
	}
	var c Cursor
	var seen []cell.Time
	l.Read(&c, 2, func(e Event) { seen = append(seen, e.T) })
	if len(seen) != 3 || seen[2] != 2 {
		t.Errorf("Read(upto=2) saw %v", seen)
	}
	l.Read(&c, 10, func(e Event) { seen = append(seen, e.T) })
	if len(seen) != 5 {
		t.Errorf("cursor did not resume: %v", seen)
	}
	if l.Len() != 5 {
		t.Errorf("Len = %d", l.Len())
	}
}

func TestLogRejectsTimeTravel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	var l Log
	l.Append(Event{T: 5})
	l.Append(Event{T: 4})
}

func TestRoundRobinCyclesPlanes(t *testing.T) {
	e := newFakeEnv(2, 4, 1)
	a, err := NewRoundRobin(e, PerInput)
	if err != nil {
		t.Fatal(err)
	}
	st := cell.NewStamper()
	var planes []cell.Plane
	for slot := cell.Time(0); slot < 6; slot++ {
		s := exec(t, e, a, slot, arr(st, slot, 0, 1))
		planes = append(planes, s[0].Plane)
	}
	want := []cell.Plane{0, 1, 2, 3, 0, 1}
	for i := range want {
		if planes[i] != want[i] {
			t.Errorf("dispatch %d -> plane %d, want %d", i, planes[i], want[i])
		}
	}
}

func TestRoundRobinSkipsBusyGates(t *testing.T) {
	e := newFakeEnv(1, 3, 2) // r'=2: gate busy for 2 slots
	a, _ := NewRoundRobin(e, PerInput)
	st := cell.NewStamper()
	s0 := exec(t, e, a, 0, arr(st, 0, 0, 0)) // plane 0, gate (0,0) busy until 2
	s1 := exec(t, e, a, 1, arr(st, 1, 0, 0)) // pointer at 1, free -> plane 1
	s2 := exec(t, e, a, 2, arr(st, 2, 0, 0)) // pointer at 2 -> plane 2
	s3 := exec(t, e, a, 3, arr(st, 3, 0, 0)) // pointer at 0, gate free again -> plane 0
	got := []cell.Plane{s0[0].Plane, s1[0].Plane, s2[0].Plane, s3[0].Plane}
	want := []cell.Plane{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("dispatch %d -> plane %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRoundRobinPerFlowPointers(t *testing.T) {
	e := newFakeEnv(1, 4, 1)
	a, _ := NewRoundRobin(e, PerFlow)
	if a.Name() != "perflow-rr" {
		t.Errorf("Name = %q", a.Name())
	}
	st := cell.NewStamper()
	// Alternate destinations; each flow keeps its own pointer.
	p0 := exec(t, e, a, 0, arr(st, 0, 0, 0))[0].Plane
	p1 := exec(t, e, a, 1, arr(st, 1, 0, 1))[0].Plane
	p2 := exec(t, e, a, 2, arr(st, 2, 0, 0))[0].Plane
	p3 := exec(t, e, a, 3, arr(st, 3, 0, 1))[0].Plane
	if p0 != 0 || p1 != 0 || p2 != 1 || p3 != 1 {
		t.Errorf("per-flow pointers broken: %d %d %d %d", p0, p1, p2, p3)
	}
}

func TestRoundRobinWouldChooseIsPure(t *testing.T) {
	e := newFakeEnv(2, 4, 1)
	a, _ := NewRoundRobin(e, PerInput)
	p1, ok1 := a.WouldChoose(0, 3)
	p2, ok2 := a.WouldChoose(0, 3)
	if !ok1 || !ok2 || p1 != p2 {
		t.Error("WouldChoose must be pure")
	}
	st := cell.NewStamper()
	s := exec(t, e, a, 0, arr(st, 0, 0, 3))
	if s[0].Plane != p1 {
		t.Errorf("dispatched to %d, WouldChoose said %d", s[0].Plane, p1)
	}
}

func TestRoundRobinRejectsTooFewPlanes(t *testing.T) {
	e := newFakeEnv(2, 2, 3) // K=2 < r'=3
	if _, err := NewRoundRobin(e, PerInput); err == nil {
		t.Error("K < r' must be rejected")
	}
}

func TestStaticPartitionStaysInGroup(t *testing.T) {
	e := newFakeEnv(8, 6, 2)
	a, err := NewStaticPartition(e, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := cell.NewStamper()
	for slot := cell.Time(0); slot < 12; slot++ {
		in := cell.Port(slot % 8)
		s := exec(t, e, a, slot, arr(st, slot, in, 0))
		group := a.Group(in)
		p := int(s[0].Plane)
		if p < group*3 || p >= (group+1)*3 {
			t.Errorf("input %d (group %d) dispatched to plane %d", in, group, p)
		}
	}
}

func TestStaticPartitionSets(t *testing.T) {
	e := newFakeEnv(8, 6, 2)
	a, _ := NewStaticPartition(e, 3)
	ps := a.PlanesOf(1) // group = 1 % 2 = 1 -> planes 3,4,5
	if len(ps) != 3 || ps[0] != 3 || ps[2] != 5 {
		t.Errorf("PlanesOf(1) = %v", ps)
	}
	ins := a.InputsOf(4) // plane 4 in group 1 -> inputs 1,3,5,7
	if len(ins) != 4 || ins[0] != 1 || ins[3] != 7 {
		t.Errorf("InputsOf(4) = %v", ins)
	}
}

func TestStaticPartitionValidation(t *testing.T) {
	e := newFakeEnv(4, 6, 2)
	if _, err := NewStaticPartition(e, 1); err == nil {
		t.Error("d < r' must be rejected")
	}
	if _, err := NewStaticPartition(e, 4); err == nil {
		t.Error("d not dividing K must be rejected")
	}
	if _, err := NewStaticPartition(e, 12); err == nil {
		t.Error("d > K must be rejected")
	}
	if _, err := NewStaticPartition(e, 6); err != nil {
		t.Errorf("d = K should be accepted: %v", err)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []cell.Plane {
		e := newFakeEnv(2, 4, 1)
		a, err := NewRandom(e, seed)
		if err != nil {
			t.Fatal(err)
		}
		st := cell.NewStamper()
		var out []cell.Plane
		for slot := cell.Time(0); slot < 20; slot++ {
			s := exec(t, e, a, slot, arr(st, slot, 0, 0))
			out = append(out, s[0].Plane)
		}
		return out
	}
	a, b := run(7), run(7)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if !same {
		t.Error("same seed must reproduce the same dispatch sequence")
	}
	c := run(8)
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should (overwhelmingly) differ")
	}
}

func TestRandomRespectsGates(t *testing.T) {
	e := newFakeEnv(1, 3, 3) // r'=3, K=3: after 2 dispatches only 1 gate free
	a, _ := NewRandom(e, 1)
	st := cell.NewStamper()
	used := map[cell.Plane]bool{}
	for slot := cell.Time(0); slot < 3; slot++ {
		s := exec(t, e, a, slot, arr(st, slot, 0, 0))
		p := s[0].Plane
		if used[p] {
			t.Fatalf("plane %d reused within r' window", p)
		}
		used[p] = true
	}
}
