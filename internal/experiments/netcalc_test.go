package experiments

import (
	"math"
	"testing"
	"testing/quick"

	"ppsim/internal/cell"
	"ppsim/internal/shadow"
	"ppsim/internal/traffic"
)

func TestCurveEvaluation(t *testing.T) {
	a := arrivalCurve{Rate: 0.5, Burst: 3}
	if a.at(0) != 0 || a.at(-1) != 0 {
		t.Error("alpha(<=0) must be 0")
	}
	if a.at(10) != 8 {
		t.Errorf("alpha(10) = %f", a.at(10))
	}
	s := serviceCurve{Rate: 2, Latency: 3}
	if s.at(3) != 0 || s.at(2) != 0 {
		t.Error("beta within latency must be 0")
	}
	if s.at(5) != 4 {
		t.Errorf("beta(5) = %f", s.at(5))
	}
}

func TestBounds(t *testing.T) {
	a := arrivalCurve{Rate: 0.5, Burst: 4}
	s := serviceCurve{Rate: 1, Latency: 2}
	d, err := delayBound(a, s)
	if err != nil {
		t.Fatal(err)
	}
	if d != 6 { // 2 + 4/1
		t.Errorf("delayBound = %f", d)
	}
	b, err := backlogBound(a, s)
	if err != nil {
		t.Fatal(err)
	}
	if b != 5 { // 4 + 0.5*2
		t.Errorf("backlogBound = %f", b)
	}
	out, err := outputCurve(a, s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rate != 0.5 || out.Burst != 5 {
		t.Errorf("outputCurve = %+v", out)
	}
}

func TestUnstableSystemRejected(t *testing.T) {
	a := arrivalCurve{Rate: 2, Burst: 0}
	s := serviceCurve{Rate: 1, Latency: 0}
	if _, err := delayBound(a, s); err == nil {
		t.Error("overloaded server must have unbounded delay")
	}
	if _, err := backlogBound(a, s); err == nil {
		t.Error("overloaded server must have unbounded backlog")
	}
	if _, err := outputCurve(a, s); err == nil {
		t.Error("overloaded server has no output curve")
	}
}

func TestNetcalcValidation(t *testing.T) {
	if err := (arrivalCurve{Rate: -1}).validate(); err == nil {
		t.Error("negative rate must be rejected")
	}
	if err := (serviceCurve{Rate: 0}).validate(); err == nil {
		t.Error("zero service rate must be rejected")
	}
	if err := (serviceCurve{Rate: 1, Latency: -1}).validate(); err == nil {
		t.Error("negative latency must be rejected")
	}
	if _, err := delayBound(arrivalCurve{Rate: -1}, oqOutputPort()); err == nil {
		t.Error("delayBound must propagate validation")
	}
}

func TestConvolve(t *testing.T) {
	s, err := convolve(serviceCurve{Rate: 2, Latency: 1}, serviceCurve{Rate: 1, Latency: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rate != 1 || s.Latency != 4 {
		t.Errorf("convolve = %+v", s)
	}
	if _, err := convolve(serviceCurve{}, serviceCurve{Rate: 1}); err == nil {
		t.Error("invalid operand must be rejected")
	}
}

func TestPaperCorollaries(t *testing.T) {
	// The paper's two uses of the calculus:
	// 1. A work-conserving switch under (R, B) traffic needs buffers of
	//    at most B.
	b, err := backlogBound(fromLeakyBucket(1, 7), oqOutputPort())
	if err != nil {
		t.Fatal(err)
	}
	if b != 7 {
		t.Errorf("backlog bound %f, want B = 7", b)
	}
	// 2. The same switch delays cells at most B slots.
	d, err := delayBound(fromLeakyBucket(1, 7), oqOutputPort())
	if err != nil {
		t.Fatal(err)
	}
	if d != 7 {
		t.Errorf("delay bound %f, want B = 7", d)
	}
}

func TestConcentrationIsUnstableSinglePlane(t *testing.T) {
	// Lemma 4 in calculus terms: rate-R traffic into a single plane path
	// (rate 1/r') is unstable, while the K-plane aggregate absorbs it.
	fullRate := fromLeakyBucket(1, 0)
	if _, err := delayBound(fullRate, ppsPlanePath(2)); err == nil {
		t.Error("one plane cannot carry rate R: expected unbounded delay")
	}
	d, err := delayBound(fullRate, ppsAggregate(4, 2)) // S = 2
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 { // latency r'-1 = 1, burst 0
		t.Errorf("aggregate delay bound %f, want 1", d)
	}
}

// Property: the measured worst delay and backlog of the shadow switch never
// exceed the calculus bounds, for random shaped traffic.
func TestShadowRespectsBounds(t *testing.T) {
	prop := func(seed int64, bRaw uint8) bool {
		const n = 4
		b := int64(bRaw % 6)
		demand := traffic.NewRegulator(n, b, traffic.NewBernoulli(n, 0.7, 150, seed))
		sh := shadow.New(n)
		st := cell.NewStamper()
		dBound, err := delayBound(fromLeakyBucket(1, b), oqOutputPort())
		if err != nil {
			return false
		}
		qBound, err := backlogBound(fromLeakyBucket(1, b), oqOutputPort())
		if err != nil {
			return false
		}
		var buf []traffic.Arrival
		var deps []cell.Cell
		for slot := cell.Time(0); slot < 3000; slot++ {
			buf = demand.Arrivals(slot, nil)
			cells := make([]cell.Cell, 0, len(buf))
			for _, a := range buf {
				cells = append(cells, st.Stamp(cell.Flow{In: a.In, Out: a.Out}, slot))
			}
			deps = sh.Step(slot, cells, deps[:0])
			for _, d := range deps {
				if float64(d.QueuingDelay()) > dBound {
					return false
				}
			}
			for j := 0; j < n; j++ {
				if float64(sh.QueueLen(cell.Port(j))) > qBound {
					return false
				}
			}
			if slot > 150 && sh.Drained() {
				break
			}
		}
		return sh.Drained()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFromLeakyBucket(t *testing.T) {
	a := fromLeakyBucket(1, 5)
	// A window of tau slots holds at most tau*R + B cells.
	if got := a.at(10); math.Abs(got-15) > 1e-12 {
		t.Errorf("alpha(10) = %f, want 15", got)
	}
}
