package fabric

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/faults"
	"ppsim/internal/traffic"
)

// interleaveTrace builds the workload of the interleave property test:
// concentration bursts (all N inputs to output 0 in one slot) separated by
// long silent gaps, so the output queue drains one cell per slot across many
// arrival-free slots, plus a scattered tail. The slot-45 fault (see the
// schedule in the test) lands mid-drain of the slot-40 burst: per-input
// round-robin has advanced every cursor to plane 2 by then (two prior
// bursts), so all eight cells sit queued in plane 2, of which the r'-limited
// output line has drained only three when the plane fails — the rest are
// dropped, and drop accounting must agree across every interleaving.
func interleaveTrace(t *testing.T, n int) *traffic.Trace {
	t.Helper()
	tr := traffic.NewTrace()
	for _, burst := range []cell.Time{0, 20, 40, 64} {
		for i := 0; i < n; i++ {
			tr.MustAdd(burst, cell.Port(i), 0)
		}
	}
	// Scattered singles keep some slots non-idle without deep backlogs.
	for i := 0; i < n; i++ {
		tr.MustAdd(80+cell.Time(3*i), cell.Port(i), cell.Port((i+1)%n))
	}
	return tr
}

// TestStepInterleaveEquivalence is the property behind the event core's
// correctness argument: ANY interleaving of Step and EventStep produces the
// same departures, drops and backlog trajectory as a pure-Step twin
// (EventStep is legal on every slot in serial mode with an idle-invariant
// algorithm). A seeded random walk over the two — fabrics fed
// identical stamped cells — must stay slot-for-slot identical, including
// across the mid-drain plane failure.
func TestStepInterleaveEquivalence(t *testing.T) {
	const (
		n        = 8
		maxSlots = 400
	)
	mkFabric := func() *PPS {
		cfg := Config{
			N: n, K: 4, RPrime: 2,
			CheckInvariants: true,
			Faults:          faults.NewSchedule().Outage(2, 45, 60),
			FaultPolicy:     faults.DropCount,
		}
		p, err := New(cfg, rrFactory(demux.PerInput))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	var steps, events, faultMidDrain int
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(seed))
			twin, subj := mkFabric(), mkFabric()
			// Independent stampers issuing identical sequence numbers: both
			// fabrics must see byte-identical cells.
			stTwin, stSubj := cell.NewStamper(), cell.NewStamper()
			src := interleaveTrace(t, n)
			var buf []traffic.Arrival
			var twinDeps, subjDeps, twinCells, subjCells []cell.Cell
			lastWasEvent := false
			for slot := cell.Time(0); slot < maxSlots; slot++ {
				if slot >= src.End() && twin.Drained() && subj.Drained() {
					break
				}
				buf = src.Arrivals(slot, buf[:0])
				twinCells, subjCells = twinCells[:0], subjCells[:0]
				for _, a := range buf {
					f := cell.Flow{In: a.In, Out: a.Out}
					twinCells = append(twinCells, stTwin.Stamp(f, slot))
					subjCells = append(subjCells, stSubj.Stamp(f, slot))
				}

				var err error
				twinDeps, err = twin.Step(slot, twinCells, twinDeps[:0])
				if err != nil {
					t.Fatalf("twin slot %d: %v", slot, err)
				}

				if subj.NextFaultSlot() == slot && lastWasEvent && subj.Backlog() > 0 {
					faultMidDrain++
				}
				mode := rnd.Intn(2)
				lastWasEvent = mode == 1
				if mode == 0 {
					steps++
					subjDeps, err = subj.Step(slot, subjCells, subjDeps[:0])
				} else {
					events++
					subjDeps, err = subj.EventStep(slot, subjCells, subjDeps[:0])
				}
				if err != nil {
					t.Fatalf("subject slot %d (mode %d): %v", slot, mode, err)
				}

				if !reflect.DeepEqual(twinDeps, subjDeps) {
					t.Fatalf("slot %d (mode %d): departures diverge\ntwin:    %v\nsubject: %v",
						slot, mode, twinDeps, subjDeps)
				}
				if !reflect.DeepEqual(twin.SlotDrops(), subj.SlotDrops()) {
					t.Fatalf("slot %d (mode %d): drops diverge\ntwin:    %v\nsubject: %v",
						slot, mode, twin.SlotDrops(), subj.SlotDrops())
				}
				if twin.Backlog() != subj.Backlog() {
					t.Fatalf("slot %d (mode %d): backlog %d vs %d", slot, mode, twin.Backlog(), subj.Backlog())
				}
			}
			if !twin.Drained() || !subj.Drained() {
				t.Fatalf("did not drain: twin backlog %d, subject backlog %d", twin.Backlog(), subj.Backlog())
			}
			if twin.Arrived() != subj.Arrived() || twin.Departed() != subj.Departed() || twin.Dropped() != subj.Dropped() {
				t.Fatalf("totals diverge: twin %d/%d/%d, subject %d/%d/%d",
					twin.Arrived(), twin.Departed(), twin.Dropped(),
					subj.Arrived(), subj.Departed(), subj.Dropped())
			}
			if twin.Dropped() == 0 {
				t.Fatal("outage dropped nothing: the fault path was not exercised")
			}
		})
	}
	if steps == 0 || events == 0 {
		t.Errorf("interleaving did not exercise both modes: %d steps, %d event steps", steps, events)
	}
	if faultMidDrain == 0 {
		t.Error("no run hit the fault slot immediately after a sparse EventStep sweep with backlog queued")
	}
}
