package demux

import (
	"testing"

	"ppsim/internal/cell"
)

// TestNamesAndBufferedContracts pins the registry names and the bufferless
// contract (Buffered == 0) for every algorithm in one table.
func TestNamesAndBufferedContracts(t *testing.T) {
	e := newFakeEnv(4, 4, 2)
	cases := []struct {
		mk       func() (Algorithm, error)
		wantName string
		buffered bool
	}{
		{func() (Algorithm, error) { return NewRoundRobin(e, PerInput) }, "rr", false},
		{func() (Algorithm, error) { return NewRoundRobin(e, PerFlow) }, "perflow-rr", false},
		{func() (Algorithm, error) { return NewStaticPartition(e, 2) }, "partition-2", false},
		{func() (Algorithm, error) { return NewRandom(e, 1) }, "random", false},
		{func() (Algorithm, error) { return NewLocalLeastLoaded(e) }, "local-least-loaded", false},
		{func() (Algorithm, error) { return NewCPA(e, MinAvail) }, "cpa", false},
		{func() (Algorithm, error) { return NewCPA(e, RotateTie) }, "cpa-rotate", false},
		{func() (Algorithm, error) { return NewCPASets(e) }, "cpa-sets", false},
		{func() (Algorithm, error) { return NewStaleCPA(e, 2) }, "stale-cpa-u2", false},
		{func() (Algorithm, error) { return NewFTD(e, 2) }, "ftd-h2", false},
		{func() (Algorithm, error) { return NewBufferedCPA(e, 3, MinAvail) }, "buffered-cpa-u3", true},
		{func() (Algorithm, error) { return NewBufferedRR(e, -1) }, "buffered-rr", true},
	}
	for _, c := range cases {
		a, err := c.mk()
		if err != nil {
			t.Fatalf("%s: %v", c.wantName, err)
		}
		if a.Name() != c.wantName {
			t.Errorf("Name = %q, want %q", a.Name(), c.wantName)
		}
		if got := a.Buffered(0); got != 0 {
			t.Errorf("%s: fresh Buffered(0) = %d, want 0", c.wantName, got)
		}
	}
}

func TestCPAMissesAccessor(t *testing.T) {
	e := newFakeEnv(4, 4, 2)
	a, _ := NewCPA(e, MinAvail)
	if a.Misses() != 0 {
		t.Error("fresh CPA should report zero misses")
	}
	b, _ := NewBufferedCPA(e, 2, MinAvail)
	if b.Misses() != 0 {
		t.Error("fresh BufferedCPA should report zero misses")
	}
}

func TestStaticPartitionAccessors(t *testing.T) {
	e := newFakeEnv(8, 4, 2)
	a, _ := NewStaticPartition(e, 2)
	p, ok := a.WouldChoose(1, 0)
	if !ok {
		t.Fatal("partition must support WouldChoose")
	}
	// Input 1 is in group 1 (planes 2,3).
	if p != 2 && p != 3 {
		t.Errorf("WouldChoose(1) = %d, want a group-1 plane", p)
	}
}

func TestBufferedRRWouldChoose(t *testing.T) {
	e := newFakeEnv(2, 4, 1)
	a, _ := NewBufferedRR(e, -1)
	p, ok := a.WouldChoose(0, 3)
	if !ok || p != 0 {
		t.Errorf("fresh WouldChoose = %d %v", p, ok)
	}
	st := cell.NewStamper()
	sends, err := a.Slot(0, []cell.Cell{st.Stamp(cell.Flow{In: 0, Out: 3}, 0)})
	if err != nil || len(sends) != 1 {
		t.Fatalf("Slot: %v %v", sends, err)
	}
	if p2, _ := a.WouldChoose(0, 3); p2 != 1 {
		t.Errorf("pointer should advance to 1, got %d", p2)
	}
}

func TestStaleCPAConsumesAllEventKinds(t *testing.T) {
	// advanceView must process arrival, dispatch and xmit events.
	e := newFakeEnv(2, 2, 2)
	a, _ := NewStaleCPA(e, 1)
	e.log.Append(Event{T: 0, Kind: EvArrival, In: 1, Out: 0})
	e.log.Append(Event{T: 0, Kind: EvDispatch, In: 1, Out: 0, K: 0})
	e.log.Append(Event{T: 0, Kind: EvXmit, In: 1, Out: 0, K: 0})
	st := cell.NewStamper()
	// At slot 2, all slot-0 events are visible: plane 0's backlog is
	// 0 (dispatch then xmit) but its line was used at slot 0, so with
	// r'=2 its linkNext is 2 — both planes tie; herding picks plane 0.
	sends, err := a.Slot(2, []cell.Cell{st.Stamp(cell.Flow{In: 0, Out: 0}, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(sends) != 1 {
		t.Fatalf("sends = %v", sends)
	}
}

func TestBufferedRRRejectsTooFewPlanes(t *testing.T) {
	e := newFakeEnv(2, 1, 2)
	if _, err := NewBufferedRR(e, -1); err == nil {
		t.Error("K < r' must be rejected")
	}
}
