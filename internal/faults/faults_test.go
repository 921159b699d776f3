package faults

import (
	"math"
	"strings"
	"testing"
)

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{
		{"abort", Abort}, {"Abort", Abort}, {" abort ", Abort},
		{"dropcount", DropCount}, {"drop-count", DropCount}, {"drop", DropCount},
	} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParsePolicy("lossy"); err == nil {
		t.Error("ParsePolicy accepted unknown policy")
	}
	if Abort.String() != "abort" || DropCount.String() != "dropcount" {
		t.Errorf("policy names: %q, %q", Abort, DropCount)
	}
}

func TestScheduleBuildersAndCanonicalOrder(t *testing.T) {
	s := NewSchedule().FailAt(1, 50).Outage(0, 10, 30).RecoverAt(1, 90)
	evs := s.Events()
	want := []Event{
		{Slot: 10, Plane: 0, Kind: Fail},
		{Slot: 30, Plane: 0, Kind: Recover},
		{Slot: 50, Plane: 1, Kind: Fail},
		{Slot: 90, Plane: 1, Kind: Recover},
	}
	if len(evs) != len(want) {
		t.Fatalf("Events() = %v", evs)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Errorf("Events()[%d] = %v, want %v", i, evs[i], want[i])
		}
	}
}

func TestSameSlotRecoverBeforeFail(t *testing.T) {
	// Two planes swapping state in one slot: the canonical order applies the
	// recover first, so the slot never sees both planes down at once.
	s := NewSchedule().FailAt(1, 20).RecoverAt(0, 20).FailAt(0, 5)
	evs := s.Events()
	if evs[1].Kind != Recover || evs[1].Plane != 0 || evs[2].Kind != Fail || evs[2].Plane != 1 {
		t.Errorf("same-slot order wrong: %v", evs)
	}
}

func TestScheduleEmpty(t *testing.T) {
	var nilSched *Schedule
	if !nilSched.Empty() {
		t.Error("nil schedule should be Empty")
	}
	if !NewSchedule().Empty() {
		t.Error("fresh schedule should be Empty")
	}
	if NewSchedule().FailAt(0, 1).Empty() {
		t.Error("schedule with events should not be Empty")
	}
	if NewSchedule().WithLoss(2, 0.5).Empty() {
		t.Error("schedule with loss should not be Empty")
	}
	if !NewSchedule().WithLoss(2, 0).Empty() {
		t.Error("zero loss should stay Empty")
	}
}

func TestValidate(t *testing.T) {
	ok := func(s *Schedule) {
		t.Helper()
		if err := s.Validate(4); err != nil {
			t.Errorf("Validate rejected legal schedule: %v", err)
		}
	}
	bad := func(s *Schedule, frag string) {
		t.Helper()
		err := s.Validate(4)
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("Validate = %v, want error containing %q", err, frag)
		}
	}
	ok(NewSchedule().Outage(0, 10, 30).Outage(0, 50, 70))
	ok(NewSchedule().RecoverAt(2, 5)) // leading recover un-fails a plane failed on the PPS before slot 0
	ok(NewSchedule().WithLoss(3, 0.25))
	bad(NewSchedule().FailAt(4, 10), "outside [0, 4)")
	bad(NewSchedule().FailAt(-1, 10), "outside [0, 4)")
	bad(NewSchedule().FailAt(0, -5), "negative slot")
	bad(NewSchedule().FailAt(0, 10).RecoverAt(0, 10), "two events at slot 10")
	bad(NewSchedule().FailAt(0, 10).FailAt(0, 20), "consecutive fail events")
	bad(NewSchedule().WithLoss(1, 1.5), "outside [0, 1]")
	bad(NewSchedule().WithLoss(1, math.NaN()), "outside [0, 1]")
	bad(NewSchedule().WithLoss(9, 0.1), "loss on plane 9")
	if err := (*Schedule)(nil).Validate(4); err != nil {
		t.Errorf("nil schedule Validate = %v", err)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	const spec = "fail:0@10,recover:0@30,fail:1@50,loss:2@0.001,seed:7"
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(4); err != nil {
		t.Fatal(err)
	}
	if s.Seed() != 7 || s.lossOf(2) != 0.001 || s.lossOf(0) != 0 || !s.HasLoss() {
		t.Errorf("parsed schedule: seed=%d loss2=%g", s.Seed(), s.lossOf(2))
	}
	if got := s.String(); got != spec {
		t.Errorf("String() = %q, want %q", got, spec)
	}
	reparsed, err := ParseSpec(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if reparsed.String() != spec {
		t.Errorf("round trip diverged: %q", reparsed.String())
	}
}

func TestParseSpecOutage(t *testing.T) {
	s, err := ParseSpec("outage:1@100-200")
	if err != nil {
		t.Fatal(err)
	}
	evs := s.Events()
	if len(evs) != 2 || evs[0] != (Event{Slot: 100, Plane: 1, Kind: Fail}) ||
		evs[1] != (Event{Slot: 200, Plane: 1, Kind: Recover}) {
		t.Errorf("outage events = %v", evs)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"explode:0@5",       // unknown verb
		"fail:0",            // missing @ARG
		"fail:x@5",          // bad plane
		"fail:-1@5",         // negative plane
		"fail:4294967296@5", // beyond int32: would wrap to plane 0
		"fail:0@-5",         // negative slot
		"outage:0@9-5",      // inverted window
		"loss:0@1.5",        // probability out of range
		"loss:0@NaN",        // NaN fails every comparison
		"seed:x",            // bad seed
		"justaword",         // not VERB:ARGS
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
	s, err := ParseSpec("  ")
	if err != nil || !s.Empty() {
		t.Errorf("blank spec: %v, %v", s, err)
	}
}

func TestRuntimeDueCursor(t *testing.T) {
	s := NewSchedule().Outage(0, 10, 30).FailAt(1, 10)
	rt := NewRuntime(s, 4)
	if evs := rt.Due(5); len(evs) != 0 {
		t.Errorf("Due(5) = %v", evs)
	}
	evs := rt.Due(10)
	if len(evs) != 2 || evs[0].Plane != 0 || evs[1].Plane != 1 {
		t.Errorf("Due(10) = %v", evs)
	}
	if evs := rt.Due(10); len(evs) != 0 {
		t.Errorf("second Due(10) = %v; cursor did not advance", evs)
	}
	// Skipped slots deliver everything that became due in between.
	if evs := rt.Due(100); len(evs) != 1 || evs[0].Kind != Recover {
		t.Errorf("Due(100) = %v", evs)
	}
	if evs := rt.Due(1000); len(evs) != 0 {
		t.Errorf("exhausted Due = %v", evs)
	}
}

func TestRuntimeLossDeterministic(t *testing.T) {
	s := NewSchedule().WithLoss(1, 0.3).WithSeed(42)
	a, b := NewRuntime(s, 4), NewRuntime(s, 4)
	if !a.HasLoss() {
		t.Fatal("runtime should draw loss streams")
	}
	lost := 0
	for i := 0; i < 10000; i++ {
		la, lb := a.Lose(1), b.Lose(1)
		if la != lb {
			t.Fatalf("draw %d diverged between identical runtimes", i)
		}
		if la {
			lost++
		}
	}
	// The stream is uniform: 10000 draws at p=0.3 land near 3000.
	if lost < 2700 || lost > 3300 {
		t.Errorf("lost %d of 10000 at p=0.3", lost)
	}
	// Planes without configured loss never lose — and never perturb the
	// configured plane's stream.
	if a.Lose(0) || a.Lose(3) {
		t.Error("loss on a plane without a configured probability")
	}
}

func TestRuntimeNoLoss(t *testing.T) {
	rt := NewRuntime(NewSchedule().FailAt(0, 5), 4)
	if rt.HasLoss() || rt.Lose(0) {
		t.Error("event-only schedule should not draw loss")
	}
}

func TestLossStreamsIndependentPerPlane(t *testing.T) {
	s := NewSchedule().WithLoss(0, 0.5).WithLoss(1, 0.5).WithSeed(1)
	rt := NewRuntime(s, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if rt.Lose(0) == rt.Lose(1) {
			same++
		}
	}
	// Correlated streams would agree (or disagree) nearly always.
	if same < 400 || same > 600 {
		t.Errorf("plane streams agree on %d of 1000 draws; expected ~500", same)
	}
}

func TestKindString(t *testing.T) {
	if Fail.String() != "fail" || Recover.String() != "recover" {
		t.Errorf("kind names: %q, %q", Fail, Recover)
	}
}
