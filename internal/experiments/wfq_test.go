package experiments

import (
	"testing"

	"ppsim/internal/cell"
)

func TestWFQValidation(t *testing.T) {
	s := newWFQScheduler()
	f := cell.Flow{In: 0, Out: 0}
	if err := s.addFlow(f, 0); err == nil {
		t.Error("zero weight must be rejected")
	}
	if err := s.addFlow(f, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.addFlow(f, 1); err == nil {
		t.Error("duplicate registration must be rejected")
	}
	st := cell.NewStamper()
	if err := s.enqueue(0, st.Stamp(cell.Flow{In: 9, Out: 9}, 0)); err == nil {
		t.Error("unregistered flow must be rejected")
	}
}

func TestSingleFlowFIFO(t *testing.T) {
	s := newWFQScheduler()
	f := cell.Flow{In: 0, Out: 0}
	s.addFlow(f, 1)
	st := cell.NewStamper()
	for i := cell.Time(0); i < 5; i++ {
		if err := s.enqueue(i, st.Stamp(f, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		c, ok := s.dequeue(cell.Time(10 + i))
		if !ok || c.FlowSeq != uint64(i) {
			t.Fatalf("dequeue %d: %v %v", i, c, ok)
		}
	}
	if _, ok := s.dequeue(100); ok {
		t.Error("empty scheduler must be idle")
	}
}

func TestWeightedShareUnderSaturation(t *testing.T) {
	// Two permanently backlogged flows with weights 3:1 must be served
	// ~3:1.
	s := newWFQScheduler()
	heavy := cell.Flow{In: 0, Out: 0}
	light := cell.Flow{In: 1, Out: 0}
	s.addFlow(heavy, 3)
	s.addFlow(light, 1)
	st := cell.NewStamper()
	for i := cell.Time(0); i < 400; i++ {
		s.enqueue(0, st.Stamp(heavy, 0))
		s.enqueue(0, st.Stamp(light, 0))
	}
	counts := map[cell.Flow]int{}
	for slot := cell.Time(0); slot < 200; slot++ {
		c, ok := s.dequeue(slot)
		if !ok {
			t.Fatal("scheduler idle while backlogged")
		}
		counts[c.Flow]++
	}
	if counts[heavy] < 140 || counts[heavy] > 160 {
		t.Errorf("heavy flow served %d of 200, want ~150", counts[heavy])
	}
	if counts[heavy]+counts[light] != 200 {
		t.Error("work conservation violated")
	}
}

func TestIsolationFromBursts(t *testing.T) {
	// A light flow sending one cell per 4 slots keeps low delay even when
	// a misbehaving flow dumps a huge burst — the WFQ isolation property.
	// Under FCFS the same light cell would wait behind the entire burst.
	s := newWFQScheduler()
	light := cell.Flow{In: 0, Out: 0}
	rogue := cell.Flow{In: 1, Out: 0}
	s.addFlow(light, 1)
	s.addFlow(rogue, 1)
	st := cell.NewStamper()
	// Burst of 100 rogue cells at slot 0.
	for i := 0; i < 100; i++ {
		s.enqueue(0, st.Stamp(rogue, 0))
	}
	var worstLight cell.Time
	slot := cell.Time(0)
	for sent := 0; sent < 20; {
		if slot%4 == 0 {
			s.enqueue(slot, st.Stamp(light, slot))
			sent++
		}
		if c, ok := s.dequeue(slot); ok && c.Flow == light {
			if d := c.Depart - c.Arrive; d > worstLight {
				worstLight = d
			}
		}
		slot++
	}
	// Drain any remaining light cells.
	for s.backlog() > 0 {
		if c, ok := s.dequeue(slot); ok && c.Flow == light {
			if d := c.Depart - c.Arrive; d > worstLight {
				worstLight = d
			}
		}
		slot++
	}
	// With equal weights the light flow owns half the line: its cells
	// wait O(1/phi) = ~2 slots, not O(burst).
	if worstLight > 4 {
		t.Errorf("light flow delayed %d slots behind a rogue burst; WFQ must isolate", worstLight)
	}
}

func TestWorkConservation(t *testing.T) {
	s := newWFQScheduler()
	a := cell.Flow{In: 0, Out: 0}
	s.addFlow(a, 2)
	st := cell.NewStamper()
	s.enqueue(0, st.Stamp(a, 0))
	if _, ok := s.dequeue(0); !ok {
		t.Error("WFQ must serve a backlogged flow immediately")
	}
	if s.served != 1 {
		t.Errorf("served = %d", s.served)
	}
	if s.backlog() != 0 {
		t.Errorf("backlog = %d", s.backlog())
	}
}
