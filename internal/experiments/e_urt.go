package experiments

import (
	"fmt"

	"ppsim/internal/adversary"
	"ppsim/internal/bounds"
	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/traffic"
)

func init() {
	register("E6", "Theorem 10: stale information costs u'N/S", e6Theorem10)
	register("E7", "Theorem 12: input buffers of size u recover CPA within u slots", e7Theorem12)
	register("E8", "Theorem 13: input buffers do not help fully-distributed dispatch", e8Theorem13)
}

// e6Theorem10 drives the u-RT stale-CPA algorithm with bursts that land
// inside its blind window; the herd concentrates on one plane. The sweep
// shows the cost growing with u and saturating at u' = r'/2, the paper's
// effective-staleness cap.
func e6Theorem10() (*Table, error) {
	const n, k, rp = 32, 16, 8 // S = 2
	t := &Table{
		ID:      "E6",
		Title:   "Theorem 10: u-RT demultiplexing under blind-window bursts",
		Claim:   "bufferless u-RT demux has RQD, RDJ >= (1 - u'r/R) * u'N/S with burstiness u'^2 N/K - u', u' = min(u, R/2r)",
		Columns: []string{"u", "u'", "burst B", "measured RQD", "measured RDJ", "bound (1-u'r/R)u'N/S", "CPA (current info) RQD"},
		Notes: []string{
			"the CPA column replays the identical trace with current global information: the cost is stale information, not capacity",
		},
	}
	g := bounds.Params{N: n, K: k, RPrime: rp}
	for _, u := range []cell.Time{1, 2, 4, 8, 16} {
		uEff := cell.Time(bounds.UEffective(g, int64(u)))
		perSlot := int(uEff) * n / k
		if perSlot < 1 {
			perSlot = 1
		}
		tr, err := adversary.Herding(adversary.HerdingSpec{
			N: n, Out: 0, Slots: uEff, PerSlot: perSlot, LeadIn: 4,
			// Jitter witness: sent once everything concentrated has
			// drained (burst cells cross one per r' slots).
			WitnessGap: cell.Time(rp)*(uEff*cell.Time(perSlot)+2) + 4,
		})
		if err != nil {
			return nil, fmt.Errorf("E6 u=%d: %w", u, err)
		}
		cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
		stale, err := harness.Run(cfg,
			func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPA(e, u) },
			tr, harness.Options{Validate: true})
		if err != nil {
			return nil, fmt.Errorf("E6 u=%d: %w", u, err)
		}
		fresh, err := harness.Run(cfg,
			func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.MinAvail) },
			tr, harness.Options{})
		if err != nil {
			return nil, fmt.Errorf("E6 u=%d cpa: %w", u, err)
		}
		bound := bounds.Theorem10(g, int64(u))
		t.AddRow(itoa(u), itoa(uEff), itoa(stale.Burstiness),
			itoa(stale.Report.MaxRQD), itoa(stale.Report.RDJ), ftoa(bound), itoa(fresh.Report.MaxRQD))
	}
	return t, nil
}

// e7Theorem12 verifies the matching upper bound: an input-buffered u-RT
// algorithm with buffers of size u and S >= 2 keeps the relative queuing
// delay at most u, under both shaped random traffic and blind-window bursts.
func e7Theorem12() (*Table, error) {
	const n, k, rp = 16, 16, 8 // S = 2
	t := &Table{
		ID:      "E7",
		Title:   "Theorem 12: buffered u-RT CPA simulation",
		Claim:   "a globally FCFS input-buffered PPS with buffer size u and S >= 2 achieves RQD <= u",
		Columns: []string{"u", "traffic", "measured RQD", "bound u"},
		Notes: []string{
			"u = 0 is the centralized CPA itself; the Omega(N/S) lower bound does not apply once buffers reach u (Section 4)",
		},
	}
	horizon := cell.Time(1200)
	for _, u := range []cell.Time{0, 1, 2, 4, 8} {
		cfg := fabric.Config{N: n, K: k, RPrime: rp, BufferCap: int(u) + 1, CheckInvariants: true}
		factory := func(e demux.Env) (demux.Algorithm, error) { return demux.NewBufferedCPA(e, u, demux.MinAvail) }

		shaped := traffic.NewRegulator(n, 3, traffic.NewBernoulli(n, 0.6, horizon/2, 17+int64(u)))
		res1, err := harness.Run(cfg, factory, shaped, harness.Options{Horizon: horizon * 4})
		if err != nil {
			return nil, fmt.Errorf("E7 u=%d shaped: %w", u, err)
		}
		t.AddRow(itoa(u), "shaped Bernoulli (B=3)", itoa(res1.Report.MaxRQD), itoa(u))

		burst, err := adversary.Herding(adversary.HerdingSpec{N: n, Out: 0, Slots: 2, PerSlot: 4, LeadIn: 2})
		if err != nil {
			return nil, err
		}
		res2, err := harness.Run(cfg, factory, burst, harness.Options{})
		if err != nil {
			return nil, fmt.Errorf("E7 u=%d burst: %w", u, err)
		}
		t.AddRow(itoa(u), "blind-window burst", itoa(res2.Report.MaxRQD), itoa(u))
	}
	return t, nil
}

// e8Theorem13 shows buffering without global information does not help:
// buffered round-robin suffers the same steering concentration for every
// buffer size.
func e8Theorem13() (*Table, error) {
	const n, k, rp = 32, 4, 2 // S = 2
	t := &Table{
		ID:      "E8",
		Title:   "Theorem 13: input-buffered fully-distributed dispatch",
		Claim:   "input-buffered fully-distributed demux has RQD, RDJ >= (1 - r/R) * N/S for ANY buffer size, under burstless traffic",
		Columns: []string{"buffer cap", "measured RQD", "measured RDJ", "bound (1-r/R)N/S"},
	}
	bound := bounds.Theorem13(bounds.Params{N: n, K: k, RPrime: rp})
	inputs := make([]cell.Port, n)
	for i := range inputs {
		inputs[i] = cell.Port(i)
	}
	for _, bc := range []int{1, 4, 16, -1} {
		cfg := fabric.Config{N: n, K: k, RPrime: rp, BufferCap: bc, CheckInvariants: true}
		factory := func(e demux.Env) (demux.Algorithm, error) { return demux.NewBufferedRR(e, bc) }
		tr, err := adversary.Steering(adversary.SteeringSpec{
			Fabric: cfg, Factory: factory, Inputs: inputs, Out: 0, Plane: 1,
		})
		if err != nil {
			return nil, fmt.Errorf("E8 cap=%d: %w", bc, err)
		}
		res, err := harness.Run(cfg, factory, tr, harness.Options{Validate: true})
		if err != nil {
			return nil, fmt.Errorf("E8 cap=%d: %w", bc, err)
		}
		capLabel := itoa(bc)
		if bc < 0 {
			capLabel = "unbounded"
		}
		t.AddRow(capLabel, itoa(res.Report.MaxRQD), itoa(res.Report.RDJ), ftoa(bound))
	}
	return t, nil
}
