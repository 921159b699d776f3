package framer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/traffic"
)

func TestOfferValidation(t *testing.T) {
	s := NewSegmenter(4)
	if _, err := s.Offer(cell.Flow{In: 0, Out: 1}, 0, 0); err == nil {
		t.Error("zero-length packet must be rejected")
	}
	if _, err := s.Offer(cell.Flow{In: 9, Out: 1}, 1, 0); err == nil {
		t.Error("out-of-range input must be rejected")
	}
	s.Arrivals(5, nil)
	if _, err := s.Offer(cell.Flow{In: 0, Out: 1}, 1, 3); err == nil {
		t.Error("offering into the past must be rejected")
	}
}

func TestSegmenterEmitsHeadOfLine(t *testing.T) {
	s := NewSegmenter(2)
	a, _ := s.Offer(cell.Flow{In: 0, Out: 1}, 3, 0)
	b, _ := s.Offer(cell.Flow{In: 0, Out: 0}, 2, 0)
	var got []traffic.Arrival
	for slot := cell.Time(0); slot < 5; slot++ {
		got = s.Arrivals(slot, got)
	}
	if len(got) != 5 {
		t.Fatalf("emitted %d cells, want 5", len(got))
	}
	// First 3 cells: packet a (out 1); next 2: packet b (out 0).
	for i, arr := range got {
		wantOut := cell.Port(1)
		if i >= 3 {
			wantOut = 0
		}
		if arr.Out != wantOut {
			t.Errorf("cell %d to output %d, want %d", i, arr.Out, wantOut)
		}
	}
	if s.Backlog() != 0 {
		t.Error("backlog should be drained")
	}
	_ = a
	_ = b
}

func TestPacketOfResolvesBoundaries(t *testing.T) {
	s := NewSegmenter(2)
	f := cell.Flow{In: 0, Out: 1}
	a, _ := s.Offer(f, 2, 0)
	b, _ := s.Offer(f, 3, 0)
	var buf []traffic.Arrival
	for slot := cell.Time(0); slot < 5; slot++ {
		buf = s.Arrivals(slot, buf[:0])
	}
	for fs, want := range map[uint64]uint64{0: a, 1: a, 2: b, 4: b} {
		p, err := s.packetOf(f, fs)
		if err != nil {
			t.Fatal(err)
		}
		if p.ID != want {
			t.Errorf("FlowSeq %d -> packet %d, want %d", fs, p.ID, want)
		}
	}
	if _, err := s.packetOf(f, 9); err == nil {
		t.Error("unowned cell must error")
	}
}

func TestFutureOffersWait(t *testing.T) {
	s := NewSegmenter(2)
	s.Offer(cell.Flow{In: 0, Out: 1}, 1, 4)
	for slot := cell.Time(0); slot < 4; slot++ {
		if got := s.Arrivals(slot, nil); len(got) != 0 {
			t.Fatalf("slot %d: early emission %v", slot, got)
		}
	}
	if got := s.Arrivals(4, nil); len(got) != 1 {
		t.Fatalf("packet should emit at its offer slot, got %v", got)
	}
}

func TestEndToEndReassemblyThroughPPS(t *testing.T) {
	const n, k, rp = 4, 4, 2
	seg := NewSegmenter(n)
	rng := rand.New(rand.NewSource(5))
	at := cell.Time(0)
	for p := 0; p < 30; p++ {
		f := cell.Flow{In: cell.Port(rng.Intn(n)), Out: cell.Port(rng.Intn(n))}
		if _, err := seg.Offer(f, 1+rng.Intn(5), at); err != nil {
			t.Fatal(err)
		}
		at += cell.Time(rng.Intn(3))
		if at == 0 {
			at = 1
		}
	}
	ras := NewReassembler(seg)
	cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
	_, err := harness.Run(cfg,
		func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerFlow) },
		seg,
		harness.Options{
			Horizon: 4000,
			OnPPSDepart: func(c cell.Cell) {
				if err := ras.OnDepart(c); err != nil {
					t.Error(err)
				}
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	if ras.Completed() != len(seg.Offered()) {
		t.Fatalf("completed %d of %d packets", ras.Completed(), len(seg.Offered()))
	}
	for _, p := range seg.Offered() {
		d, ok := ras.Delay(p)
		if !ok {
			t.Fatalf("packet %d incomplete", p.ID)
		}
		// A packet of L cells served at one cell per slot from its offer
		// needs at least L-1 slots; sanity-check the lower edge.
		if d < cell.Time(p.Cells-1) {
			t.Errorf("packet %d (len %d) finished impossibly fast: %d slots", p.ID, p.Cells, d)
		}
	}
}

// Property: every emitted cell maps back to exactly the packet whose window
// covers it, in offer order per flow, for random workloads.
func TestSegmentationConsistency(t *testing.T) {
	prop := func(seed int64) bool {
		const n = 3
		seg := NewSegmenter(n)
		rng := rand.New(rand.NewSource(seed))
		at := cell.Time(0)
		for p := 0; p < 15; p++ {
			f := cell.Flow{In: cell.Port(rng.Intn(n)), Out: cell.Port(rng.Intn(n))}
			if _, err := seg.Offer(f, 1+rng.Intn(4), at); err != nil {
				return false
			}
			at += cell.Time(rng.Intn(2))
			if at == 0 {
				at = 1
			}
		}
		perFlowSeq := map[cell.Flow]uint64{}
		perPacketGot := map[uint64]int{}
		var buf []traffic.Arrival
		for slot := cell.Time(0); slot < 500; slot++ {
			buf = seg.Arrivals(slot, buf[:0])
			for _, a := range buf {
				f := cell.Flow{In: a.In, Out: a.Out}
				fs := perFlowSeq[f]
				perFlowSeq[f] = fs + 1
				p, err := seg.packetOf(f, fs)
				if err != nil {
					return false
				}
				perPacketGot[p.ID]++
				if perPacketGot[p.ID] > p.Cells {
					return false
				}
			}
			if seg.Backlog() == 0 && slot > at {
				break
			}
		}
		for _, p := range seg.Offered() {
			if perPacketGot[p.ID] != p.Cells {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
