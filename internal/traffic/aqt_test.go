package traffic

import (
	"strings"
	"testing"
	"testing/quick"

	"ppsim/internal/cell"
)

func TestAQTValidation(t *testing.T) {
	tr := NewTrace()
	tr.MustAdd(0, 0, 0)
	if _, err := AQTExcess(2, tr, 0, 1); err == nil {
		t.Error("w=0 must be rejected")
	}
	if _, err := AQTExcess(2, tr, 4, 0); err == nil {
		t.Error("rho=0 must be rejected")
	}
	if _, err := AQTExcess(2, &Flood{N: 2, Out: 0, Until: cell.None}, 4, 1); err == nil {
		t.Error("unbounded source must be rejected")
	}
}

// TestAQTExcessRejectsOutOfRange: an arrival outside the switch on either
// side is an error, as it is for MeasureSource, not an index panic.
func TestAQTExcessRejectsOutOfRange(t *testing.T) {
	for _, a := range []Arrival{{In: 0, Out: 5}, {In: 5, Out: 0}, {In: -1, Out: 0}} {
		tr := NewTrace()
		tr.MustAdd(3, a.In, a.Out)
		if _, err := AQTExcess(2, tr, 2, 1); err == nil || !strings.Contains(err.Error(), "outside 2x2 switch") {
			t.Errorf("arrival %d->%d: err = %v, want the outside-the-switch error", a.In, a.Out, err)
		}
	}
}

func TestFloodViolatesAQT(t *testing.T) {
	f := &Flood{N: 4, Out: 0, Until: 40}
	ex, err := AQTExcess(4, f, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 4 cells/slot to output 0 over a 10-slot window = 40, rho*w = 10.
	if ex != 30 {
		t.Errorf("flood AQT excess = %f, want 30", ex)
	}
}

func TestBurstlessTrafficIsAQTAdmissibleAtRhoOne(t *testing.T) {
	tr := NewTrace()
	for s := cell.Time(0); s < 30; s++ {
		tr.MustAdd(s, cell.Port(s%3), 0)
	}
	ex, err := AQTExcess(3, tr, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ex > 0 {
		t.Errorf("rate-R burstless traffic must be (w, 1)-admissible, excess %f", ex)
	}
}

// Property (the Discussion's claim): any (R=1, B) leaky-bucket stream is
// (w, 1 + B/w)-admissible for every window w — the paper's flows satisfy
// the adversarial-queueing restrictions too.
func TestLeakyBucketIsAQTAdmissible(t *testing.T) {
	prop := func(seed int64, bRaw, wRaw uint8) bool {
		const n = 4
		b := int64(bRaw % 6)
		w := cell.Time(wRaw%20) + 1
		// Shape random bursty demand to (R=1, B).
		demand, err := NewOnOff(n, 5, 2, 80, seed)
		if err != nil {
			return false
		}
		reg := NewRegulator(n, b, demand)
		tr := NewTrace()
		var buf []Arrival
		for s := cell.Time(0); s < 800; s++ {
			buf = reg.Arrivals(s, nil)
			for _, a := range buf {
				if err := tr.Add(s, a.In, a.Out); err != nil {
					return false
				}
			}
			if s > 80 && reg.Backlog() == 0 {
				break
			}
		}
		if tr.End() == 0 {
			return true
		}
		rho := 1 + float64(b)/float64(w)
		ex, err := AQTExcess(n, tr, w, rho)
		if err != nil {
			return false
		}
		return ex <= 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
