package experiments

import (
	"fmt"

	"ppsim/internal/admission"
	"ppsim/internal/cell"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/traffic"
)

func init() {
	register("E28", "Admission control: token-bucket vs always-admit under inadmissible bursty load", e28Admission)
}

// e28Admission drives the switch with an offered load well past capacity —
// four on/off flows concentrated onto two outputs, 1.6 cells/slot offered
// to each against a drain rate of 1 — and compares the always-admit default
// against token-bucket admission across several seeds. A deep plane fan-out
// (K=4 planes at r'=4, speedup 1) makes the overload hurt where the paper
// says it must: cells of one output spread across slow planes out of order,
// so resequencing delay — and with it the delivered-cell RQD tail — grows
// with the burst depth. The token bucket sheds the excess at the door; the
// cells it does admit see a switch operating inside its capacity region and
// their p999 RQD collapses. The conservation identities (offered ==
// admitted + rejected + expired-at-admission; admitted == delivered +
// dropped + expired-at-resequencing) are asserted for every run — no
// offered cell goes unaccounted. Hypothesis H-ADM in EXPERIMENTS.md records
// the multi-seed dominance check this table feeds.
func e28Admission() (*Table, error) {
	const n, k, rp = 8, 4, 4 // S = 1: per-output capacity is 1 cell/slot
	t := &Table{
		ID:      "E28",
		Title:   "Graceful overload degradation at 1.6x capacity (on/off bursts into two outputs)",
		Claim:   "(robustness extension; cf. delay-constrained IQ switching) under inadmissible load, token-bucket admission keeps the delivered-cell tail RQD bounded while always-admit lets it grow with the burst backlog",
		Columns: []string{"policy", "seed", "offered", "admitted", "rejected", "expired", "delivered", "goodput", "on-time", "p99 rqd", "p999 rqd"},
		Notes: []string{
			"offered load: four on/off flows (mean burst 32, mean gap 8, per-flow load 0.8) concentrated onto outputs {0, 1} — 1.6 cells/slot per output against capacity 1",
			"goodput is delivered cells per slot across the run; on-time is delivered-on-time cells over offered cells (without deadlines every delivered cell counts)",
			"conservation (offered == admitted + rejected + expired_admit and admitted == delivered + dropped + expired_reseq) is asserted for every row",
		},
	}
	horizon := cell.Time(4000)
	seeds := []int64{3, 7, 11}
	// The comparison policy: per-input rate 1/5 with burst 8 caps the four
	// active inputs at an aggregate 0.8 cells/slot — back inside the capacity
	// region, with enough burst depth to ride out short gaps.
	spec, err := admission.ParseSpec("rate:1/5,burst:8")
	if err != nil {
		return nil, err
	}
	policies := []struct {
		name string
		spec *admission.Spec
	}{
		{"always", nil},
		{spec.Name(), spec},
	}
	for _, p := range policies {
		for _, seed := range seeds {
			src, err := overloadTrace(horizon, seed)
			if err != nil {
				return nil, err
			}
			res, err := harness.Run(cfg28(n, k, rp), rrFactory, src, harness.Options{
				Validate:  true,
				Admission: p.spec,
			})
			if err != nil {
				return nil, fmt.Errorf("E28 %s seed=%d: %w", p.name, seed, err)
			}
			rep := res.Report
			if rep.Offered != rep.Admitted+rep.Rejected+rep.ExpiredAdmit {
				return nil, fmt.Errorf("E28 %s seed=%d: admission leak: offered=%d admitted=%d rejected=%d expired=%d",
					p.name, seed, rep.Offered, rep.Admitted, rep.Rejected, rep.ExpiredAdmit)
			}
			if rep.Admitted != rep.Cells+rep.Drops+rep.ExpiredReseq {
				return nil, fmt.Errorf("E28 %s seed=%d: delivery leak: admitted=%d delivered=%d drops=%d expired=%d",
					p.name, seed, rep.Admitted, rep.Cells, rep.Drops, rep.ExpiredReseq)
			}
			t.AddRow(p.name, itoa(seed),
				itoa(rep.Offered), itoa(rep.Admitted), itoa(rep.Rejected),
				itoa(rep.ExpiredAdmit+rep.ExpiredReseq), itoa(rep.Cells),
				fmt.Sprintf("%.3f", res.Goodput), fmt.Sprintf("%.3f", res.OnTimeFraction),
				itoa(rep.Percentiles.RQD.P99), itoa(rep.Percentiles.RQD.P999))
		}
	}
	return t, nil
}

func cfg28(n, k int, rp int64) fabric.Config {
	return fabric.Config{N: n, K: k, RPrime: rp, BufferCap: -1, CheckInvariants: true}
}

// overloadTrace materializes the E28 workload: four independent on/off
// flows on inputs 0..3, every cell redirected onto outputs {0, 1}. Per-flow
// load is 32/(32+8) = 0.8, so each hot output is offered ~1.6 cells/slot —
// sustained inadmissible load delivered in bursts.
func overloadTrace(horizon cell.Time, seed int64) (traffic.Source, error) {
	onoff, err := traffic.NewOnOff(4, 32, 8, horizon, seed)
	if err != nil {
		return nil, err
	}
	tr := traffic.NewTrace()
	var buf []traffic.Arrival
	for s := cell.Time(0); s < horizon; s++ {
		buf = onoff.Arrivals(s, buf[:0])
		for _, a := range buf {
			if err := tr.Add(s, a.In, a.Out%2); err != nil {
				return nil, err
			}
		}
	}
	return tr, nil
}
