package experiments

import (
	"fmt"

	"ppsim/internal/adversary"
	"ppsim/internal/cell"
	"ppsim/internal/clos"
	"ppsim/internal/crossbar"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/jitterreg"
	"ppsim/internal/traffic"
)

func init() {
	register("E1", "Figure 1: the 5x5 PPS with 2 planes", e1Figure1)
	register("E14", "Arbitrated crossbar (iSLIP) as a u-RT exemplar", e14Crossbar)
	register("E15", "Jitter regulators need buffers sized to the relative delay", e15JitterRegulator)
}

// e1Figure1 instantiates the paper's Figure 1 switch, checks its Clos-
// network structure, and smoke-runs it.
func e1Figure1() (*Table, error) {
	const n, k, rp = 5, 2, 2
	t := &Table{
		ID:      "E1",
		Title:   "Figure 1: 5x5 PPS, 2 planes, no input buffers",
		Claim:   "the PPS is a three-stage Clos network with K < N planes of rate r < R",
		Columns: []string{"property", "value"},
	}
	cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
	cl, err := clos.FromPPS(n, k)
	if err != nil {
		return nil, err
	}
	perm, err := traffic.NewPermutation([]cell.Port{1, 2, 3, 4, 0}, 40)
	if err != nil {
		return nil, err
	}
	res, err := harness.Run(cfg, rrFactory, perm, harness.Options{Validate: true})
	if err != nil {
		return nil, err
	}
	t.AddRow("external ports N", itoa(n))
	t.AddRow("center-stage planes K", itoa(k))
	t.AddRow("internal line occupancy r'", itoa(rp))
	t.AddRow("speedup S = K/r'", ftoa(cfg.Speedup()))
	t.AddRow("Clos descriptor (m,n,r)", fmt.Sprintf("(%d,%d,%d)", cl.M, cl.N, cl.R))
	t.AddRow("Clos rearrangeable", fmt.Sprintf("%v", cl.Rearrangeable()))
	t.AddRow("demultiplexors / multiplexors", fmt.Sprintf("%d / %d", n, n))
	t.AddRow("internal lines (each side)", itoa(n*k))
	t.AddRow("smoke run: cells delivered", itoa(res.Report.Cells))
	t.AddRow("smoke run: max RQD", itoa(res.Report.MaxRQD))
	return t, nil
}

// e14Crossbar runs the arbitrated input-queued crossbar — the paper's
// example of a u-RT mechanism in deployed hardware — against the OQ shadow
// under contention, sweeping arbiter iterations.
func e14Crossbar() (*Table, error) {
	const n = 8
	t := &Table{
		ID:      "E14",
		Title:   "Input-queued crossbar arbitration vs output queuing",
		Claim:   "arbitrated crossbars are u-RT mechanisms: request-grant delay and HOL contention cost relative delay that more arbiter iterations only partially recover",
		Columns: []string{"arbiter", "iterations", "traffic", "mean rel. delay", "max rel. delay"},
	}
	slots := cell.Time(1500)
	arbiters := []struct {
		name string
		arb  crossbar.Arbiter
	}{{"islip", crossbar.ISLIP}, {"pim", crossbar.PIM}}
	for _, ar := range arbiters {
		for _, it := range []int{1, 2, 4} {
			for _, kind := range []string{"uniform 0.8", "hotspot"} {
				var src traffic.Source
				if kind == "uniform 0.8" {
					src = traffic.NewBernoulli(n, 0.8, slots, 7)
				} else {
					h, err := traffic.NewHotspot(n, 0.6, 0.5, 0, slots, 7)
					if err != nil {
						return nil, err
					}
					src = traffic.NewRegulator(n, 4, h)
				}
				xb, err := crossbar.NewWithArbiter(n, it, ar.arb, 11)
				if err != nil {
					return nil, err
				}
				// The hotspot regulator is unbounded: feed it for 4x the
				// demand horizon, which releases every regulated cell.
				res, err := harness.Drive(xb, src, harness.Options{Horizon: slots * 4})
				if err != nil {
					return nil, fmt.Errorf("E14 %s iters=%d %s: %w", ar.name, it, kind, err)
				}
				t.AddRow(ar.name, itoa(it), kind, ftoa(res.Report.MeanRQD), itoa(res.Report.MaxRQD))
			}
		}
	}
	return t, nil
}

// e15JitterRegulator connects the Discussion's point: shaping the jittery
// PPS output back to constant delay needs a regulator buffer proportional
// to the relative queuing delay the PPS introduced.
func e15JitterRegulator() (*Table, error) {
	const n, k, rp, c = 16, 4, 3, 12
	t := &Table{
		ID:      "E15",
		Title:   "Downstream jitter regulation of a concentrated PPS flow",
		Claim:   "(Discussion) lower bounds on relative queuing delay translate to lower bounds on jitter-regulator buffers",
		Columns: []string{"regulator buffer", "residual jitter", "early releases"},
		Notes: []string{
			fmt.Sprintf("the PPS run has max relative delay about (c-1)(r'-1) = %d; buffers of that order are needed for zero residual jitter", (c-1)*(rp-1)),
		},
	}
	// Produce the concentrated departure stream once.
	cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
	tr, err := adversary.Concentration(n, c, 0)
	if err != nil {
		return nil, err
	}
	var departs []cell.Cell
	if _, err := harness.Run(cfg, rrFactory, tr, harness.Options{
		OnPPSDepart: func(cl cell.Cell) {
			if cl.Flow.Out == 0 {
				departs = append(departs, cl)
			}
		},
	}); err != nil {
		return nil, err
	}

	targetD := cell.Time((c - 1) * (rp - 1))
	for _, b := range []int{1, 4, 8, 16, 0} { // 0 = unbounded
		reg, err := jitterreg.New(targetD, b)
		if err != nil {
			return nil, err
		}
		// Re-clock the departures through the regulator; the cell's
		// Arrive at the regulator is its PPS departure slot.
		bySlot := map[cell.Time][]cell.Cell{}
		var last cell.Time
		for _, d := range departs {
			nc := d
			nc.Arrive = d.Depart
			bySlot[d.Depart] = append(bySlot[d.Depart], nc)
			if d.Depart > last {
				last = d.Depart
			}
		}
		var out []cell.Cell
		for s := cell.Time(0); s <= last+targetD+1; s++ {
			out, err = reg.Step(s, bySlot[s], out)
			if err != nil {
				return nil, err
			}
		}
		label := itoa(b)
		if b == 0 {
			label = "unbounded"
		}
		t.AddRow(label, itoa(reg.Jitter()), itoa(reg.Early()))
	}
	return t, nil
}
