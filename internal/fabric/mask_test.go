package fabric

import (
	"fmt"
	"math/rand"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/faults"
)

// TestPlaneMaskMirrorsQueues holds the per-output plane mask to the plane
// queues after every slot: bit k of planeMask[j] is set exactly when plane k
// holds a cell for output j. The check is O(N·K) per slot, so it lives here
// rather than in audit(). It covers the stepped core, the event core and the
// 2-worker engine, under both fault policies, at K = 1, 8 and 64. Plane 0
// fails twice while it holds a burst for output 0: under DropCount the
// failure drains it, under Abort it keeps draining through the outage.
func TestPlaneMaskMirrorsQueues(t *testing.T) {
	const n = 16
	tr := interleaveTrace(t, n)
	rng := rand.New(rand.NewSource(5))
	for slot := cell.Time(150); slot < 350; slot++ {
		for in := 0; in < n; in++ {
			if rng.Intn(10) < 6 {
				tr.MustAdd(slot, cell.Port(in), cell.Port(rng.Intn(n)))
			}
		}
	}
	for _, k := range []int{1, 8, 64} {
		for _, policy := range []faults.Policy{faults.Abort, faults.DropCount} {
			for _, core := range []string{"stepped", "event", "workers2"} {
				t.Run(fmt.Sprintf("k%d/%s/%s", k, policy, core), func(t *testing.T) {
					cfg := Config{
						N: n, K: k, RPrime: int64(min(k, 4)),
						CheckInvariants: true,
						Faults:          faults.NewSchedule().Outage(0, 10, 15).Outage(0, 45, 50),
						FaultPolicy:     policy,
					}
					if core == "workers2" {
						cfg.Workers = 2
					}
					p, err := New(cfg, rrFactory(demux.PerInput))
					if err != nil {
						t.Fatal(err)
					}
					defer p.Close()
					st := cell.NewStamper()
					var cells, deps []cell.Cell
					multi := 0 // slots in which some output's mask held two or more planes
					for slot := cell.Time(0); slot < tr.End() || !p.Drained(); slot++ {
						if slot > 4*tr.End() {
							t.Fatalf("switch did not drain (backlog %d)", p.Backlog())
						}
						cells = cells[:0]
						for _, a := range tr.Arrivals(slot, nil) {
							cells = append(cells, st.Stamp(cell.Flow{In: a.In, Out: a.Out}, slot))
						}
						if core == "event" {
							deps, err = p.EventStep(slot, cells, deps[:0])
						} else {
							deps, err = p.Step(slot, cells, deps[:0])
						}
						if err != nil {
							t.Fatalf("slot %d: %v", slot, err)
						}
						if checkPlaneMask(t, p, slot) {
							multi++
						}
					}
					if policy == faults.DropCount && p.Dropped() == 0 {
						t.Error("no cell was dropped: the failures hit empty planes")
					}
					if k > 1 && multi == 0 {
						t.Error("no output ever had cells queued in two planes")
					}
				})
			}
		}
	}
}

// checkPlaneMask fails the test if some output's plane mask disagrees with
// the plane queues, and reports whether any mask had two or more bits set.
func checkPlaneMask(t *testing.T, p *PPS, slot cell.Time) (multi bool) {
	t.Helper()
	for j := range p.planeMask {
		var want uint64
		for k, pl := range p.planes {
			if pl.QueueLen(cell.Port(j)) > 0 {
				want |= 1 << k
			}
		}
		if got := p.planeMask[j]; got != want {
			t.Fatalf("slot %d: planeMask[%d] = %#x, plane queues hold cells for it in %#x", slot, j, got, want)
		}
		multi = multi || want&(want-1) != 0
	}
	return multi
}
