package demux

import (
	"math/rand"
	"slices"
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
func (e *fakeEnv) FreeGateMask(in cell.Port, t cell.Time) uint64 {
	var m uint64
	for k := 0; k < e.k; k++ {
		if e.gateFreeAt(in, cell.Plane(k)) <= t {
			m |= 1 << uint(k)
		}
	}
	return m
}
func (e *fakeEnv) Log() *Log { return &e.log }

// gateFreeAt is the earliest slot at which input in may start a
// transmission to plane k.
func (e *fakeEnv) gateFreeAt(in cell.Port, k cell.Plane) cell.Time {
	return e.gates.Gate(int(in), int(k)).FreeAt()
}

// scanFree is the per-plane cyclic scan that pickFree's mask replaced: the
// first plane from start that allowed admits (nil admits all) and whose
// gate is free at t, or NoPlane.
func scanFree(e *fakeEnv, in cell.Port, t cell.Time, start cell.Plane, allowed func(cell.Plane) bool) cell.Plane {
	for d := 0; d < e.k; d++ {
		p := cell.Plane((int(start) + d) % e.k)
		if allowed != nil && !allowed(p) {
			continue
		}
		if e.gateFreeAt(in, p) <= t {
			return p
		}
	}
	return cell.NoPlane
}

// TestPickFreeMatchesScan pins the mask pickFree to the cyclic scan for
// every start over random free and allow sets, the all-busy one included.
func TestPickFreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 7, 8, 64} {
		full := ^uint64(0) >> uint(64-k)
		for trial := 0; trial < 200; trial++ {
			busy := rng.Uint64() & full
			switch trial {
			case 0:
				busy = full
			case 1:
				busy = 0
			}
			allow := rng.Uint64()
			if trial%3 == 2 {
				allow = ^uint64(0)
			}
			// Gates seized at slot 0 with r' = 2 are still busy at slot 1.
			e := newFakeEnv(1, k, 2)
			for p := 0; p < k; p++ {
				if busy&(1<<uint(p)) != 0 {
					if err := e.gates.SeizeAt(0, p, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			allowed := func(p cell.Plane) bool { return allow&(1<<uint(p)) != 0 }
			for start := cell.Plane(0); int(start) < k; start++ {
				want := scanFree(e, 0, 1, start, allowed)
				if got := pickFree(e, 0, 1, start, allow); got != want {
					t.Fatalf("K=%d busy %#x allow %#x start %d: pickFree = %d, scan says %d", k, busy, allow, start, got, want)
				}
			}
		}
	}
}

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
	c := l.NewCursor()
	slow := l.NewCursor()
	for i := cell.Time(0); i < 5; i++ {
		l.Append(Event{T: i, Kind: EvArrival})
	}
	var seen []cell.Time
	l.Read(c, 2, func(e Event) { seen = append(seen, e.T) })
	if len(seen) != 3 || seen[2] != 2 {
		t.Errorf("Read(upto=2) saw %v", seen)
	}
	l.Read(c, 10, func(e Event) { seen = append(seen, e.T) })
	if len(seen) != 5 {
		t.Errorf("cursor did not resume: %v", seen)
	}
	if l.Len() != 5 {
		t.Errorf("Len = %d", l.Len())
	}

	// The fast cursor keeps up far past the compaction floor while the slow
	// one reads nothing: the slow cursor pins every event.
	const total = 4 * logCompactFloor
	for i := cell.Time(5); i < total; i++ {
		l.Append(Event{T: i, Kind: EvArrival})
		l.Read(c, i, func(e Event) { seen = append(seen, e.T) })
	}
	if len(l.events) != total || l.Len() != total {
		t.Fatalf("slow cursor did not pin the prefix: retained %d, Len %d", len(l.events), l.Len())
	}
	var slowSeen []cell.Time
	l.Read(slow, total, func(e Event) { slowSeen = append(slowSeen, e.T) })
	for _, got := range [][]cell.Time{seen, slowSeen} {
		if len(got) != total {
			t.Fatalf("read %d events, want %d", len(got), total)
		}
		for i, ts := range got {
			if ts != cell.Time(i) {
				t.Fatalf("event %d has slot %d", i, ts)
			}
		}
	}

	// Both cursors have passed everything: the prefix is dropped, Len still
	// counts it, and a late cursor starts at the oldest retained event.
	if len(l.events) != 0 || l.Len() != total {
		t.Errorf("after catch-up: retained %d, Len %d; want 0, %d", len(l.events), l.Len(), total)
	}
	l.Append(Event{T: total, Kind: EvArrival})
	var late []cell.Time
	l.Read(l.NewCursor(), total, func(e Event) { late = append(late, e.T) })
	if len(late) != 1 || late[0] != total || l.Len() != total+1 {
		t.Errorf("late cursor read %v, Len %d", late, l.Len())
	}
}

func TestLogRejectsUnregisteredCursor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	var l, other Log
	l.Read(other.NewCursor(), 0, func(Event) {})
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
	// Input 1 is in group 1 % 2 = 1 and cycles over planes 3, 4, 5.
	st := cell.NewStamper()
	var planes []cell.Plane
	for slot := cell.Time(0); slot < 6; slot++ {
		planes = append(planes, exec(t, e, a, slot, arr(st, slot, 1, 0))[0].Plane)
	}
	if want := []cell.Plane{3, 4, 5, 3, 4, 5}; !slices.Equal(planes, want) {
		t.Errorf("input 1 dispatched to %v, want %v", planes, want)
	}
	// Plane 4 is shared by group 1: inputs 1, 3, 5, 7.
	var ins []int
	for in := 0; in < 8; in++ {
		if a.Group(cell.Port(in)) == 1 {
			ins = append(ins, in)
		}
	}
	if want := []int{1, 3, 5, 7}; !slices.Equal(ins, want) {
		t.Errorf("group 1 = inputs %v, want %v", ins, want)
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
