package experiments

import (
	"fmt"

	"ppsim/internal/adversary"
	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/traffic"
)

func init() {
	register("E9", "Theorem 14: FTD extension has no relative delay in congested periods", e9Theorem14)
	register("E10", "Proposition 15: congestion traffic is not leaky-bucket", e10Proposition15)
}

// e9Theorem14 floods one output so that every plane queue for it stays
// backlogged (a congested period) and verifies that under the FTD extension
// the output never idles after a warm-up — the operational meaning of "no
// relative queuing delay in congested periods". Larger h shortens warm-up.
func e9Theorem14() (*Table, error) {
	const n, k, rp = 16, 8, 2 // S = 4
	t := &Table{
		ID:      "E9",
		Title:   "Theorem 14: FTDX under a congested period",
		Claim:   "a bufferless PPS has a parameterized fully-distributed demux with zero relative queuing delay in congested periods, after a warm-up shortened by larger h",
		Columns: []string{"algorithm", "h", "block", "output-0 utilization", "idle slots in span", "MaxRQD"},
		Notes: []string{
			"utilization 1.0 = the flooded output emits a cell every slot between its first and last departure, exactly like the work-conserving reference — zero relative delay once congested",
			"MaxRQD here is entirely warm-up (the first burst before all plane queues backlog); at this geometry (K >= every block size) warm-up is a single burst for all h, and even plain round-robin keeps a flooded output saturated",
		},
	}
	floodLen := cell.Time(300)
	type row struct {
		name string
		h    float64
		mk   func(demux.Env) (demux.Algorithm, error)
	}
	rows := []row{
		{"ftd", 1.5, func(e demux.Env) (demux.Algorithm, error) { return demux.NewFTD(e, 1.5) }},
		{"ftd", 2, func(e demux.Env) (demux.Algorithm, error) { return demux.NewFTD(e, 2) }},
		{"ftd", 4, func(e demux.Env) (demux.Algorithm, error) { return demux.NewFTD(e, 4) }},
		{"rr (contrast)", 0, rrFactory},
	}
	for _, r := range rows {
		cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
		src := &traffic.Flood{N: n, Out: 0, Until: floodLen}
		res, err := harness.Run(cfg, r.mk, src, harness.Options{})
		if err != nil {
			return nil, fmt.Errorf("E9 %s h=%g: %w", r.name, r.h, err)
		}
		util := res.Utilization[0]
		// Idle slots between first and last departure of output 0.
		idle := int64(float64(res.Report.Cells)/util) - int64(res.Report.Cells)
		block := "-"
		hLabel := "-"
		if r.h > 0 {
			block = itoa(int(r.h * rp))
			hLabel = fmt.Sprintf("%g", r.h)
		}
		t.AddRow(r.name, hLabel, block, fmt.Sprintf("%.4f", util), itoa(idle), itoa(res.Report.MaxRQD))
	}
	return t, nil
}

// e10Proposition15 measures the windowed burstiness of the congestion
// traffic against leaky-bucket traffics: the former grows linearly in the
// window length (so no fixed B bounds it), the latter stay flat.
func e10Proposition15() (*Table, error) {
	const n = 16
	t := &Table{
		ID:      "E10",
		Title:   "Proposition 15: burstiness of congestion traffic grows without bound",
		Claim:   "any traffic causing congestion under the Theorem 14 algorithms is not (R, B) leaky-bucket for any B independent of time",
		Columns: []string{"window tau", "flood excess", "Theorem-6 trace excess", "shaped Bernoulli (B=4) excess"},
	}
	taus := []cell.Time{1, 10, 100, 500}
	horizon := cell.Time(600)

	flood := &traffic.Flood{N: n, Out: 0, Until: horizon}

	cfg := fabric.Config{N: n, K: 4, RPrime: 2, CheckInvariants: true}
	inputs := adversary.AllInputs(n)
	steer, err := adversary.Steering(adversary.SteeringSpec{
		Fabric: cfg, Factory: rrFactory, Inputs: inputs, Out: 0, Plane: 1,
		ScrambleSlots: 16, ScrambleSeed: 3,
	})
	if err != nil {
		return nil, err
	}

	// Materialize a shaped Bernoulli stream into a finite trace.
	shapedTrace, err := materialize(n, traffic.NewRegulator(n, 4, traffic.NewBernoulli(n, 0.7, horizon, 9)), horizon)
	if err != nil {
		return nil, err
	}

	for _, tau := range taus {
		fx, err := traffic.WindowBurstiness(n, flood, tau)
		if err != nil {
			return nil, err
		}
		sx, err := traffic.WindowBurstiness(n, steer, tau)
		if err != nil {
			return nil, err
		}
		bx, err := traffic.WindowBurstiness(n, shapedTrace, tau)
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(tau), itoa(fx), itoa(sx), itoa(bx))
	}
	return t, nil
}
