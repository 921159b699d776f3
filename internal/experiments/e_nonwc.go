package experiments

import (
	"cmp"
	"fmt"
	"slices"

	"ppsim/internal/adversary"
	"ppsim/internal/cell"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/shadow"
)

func init() {
	register("E26", "Discussion: non-work-conserving references make the comparison meaningless", e26NonWC)
}

// e26NonWC measures the same steered PPS execution against jitter-shaping
// (non-work-conserving) reference switches of growing target delay D. As D
// grows the reference's own idling absorbs the PPS's concentration delay
// and the "relative delay" collapses through zero — the Discussion's point
// that only work-conserving references yield a meaningful competitive
// measure.
func e26NonWC() (*Table, error) {
	const n, k, rp = 16, 4, 3
	t := &Table{
		ID:      "E26",
		Title:   "The same PPS execution against shaped (non-work-conserving) references",
		Claim:   "(Discussion) 'a non-work-conserving reference switch can degrade... making the comparison meaningless': against a D-shaping reference the measured relative delay collapses as D grows, hiding the concentration entirely",
		Columns: []string{"reference", "max relative delay", "verdict"},
	}
	// One fixed adversarial execution of the PPS.
	tr, err := adversary.Concentration(n, n, 0)
	if err != nil {
		return nil, err
	}
	var deps []cell.Cell
	cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
	if _, err := harness.Run(cfg, rrFactory, tr, harness.Options{
		OnPPSDepart: func(c cell.Cell) { deps = append(deps, c) },
	}); err != nil {
		return nil, err
	}
	slices.SortFunc(deps, func(a, b cell.Cell) int { return cmp.Compare(a.Seq, b.Seq) })

	// A reference that holds every cell D slots, then serializes it FCFS on
	// its output, departs it at the work-conserving FCFS slot of a cell that
	// arrived D slots later: score the PPS against that Oracle.
	for _, d := range []cell.Time{0, 8, 16, 32, 64} {
		ref := shadow.NewOracle(n)
		var worst cell.Time
		for i, c := range deps {
			if delta := c.Depart - ref.Departure(c.Arrive+d, c.Flow.Out); i == 0 || delta > worst {
				worst = delta
			}
		}
		label := fmt.Sprintf("shaped D=%d", d)
		if d == 0 {
			label = "work-conserving (D=0)"
		}
		verdict := "meaningful: concentration visible"
		if worst <= 0 {
			verdict = "MEANINGLESS: reference idling hides the PPS entirely"
		} else if int64(worst) < int64((n-1)*(rp-1))/2 {
			verdict = "degraded: concentration partly hidden"
		}
		t.AddRow(label, itoa(worst), verdict)
	}
	return t, nil
}
