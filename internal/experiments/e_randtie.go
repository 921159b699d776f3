package experiments

import (
	"fmt"

	"ppsim/internal/adversary"
	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/stats"
)

func init() {
	register("E19", "Ablation: determinism, not staleness alone, causes the herding", e19RandTie)
}

// e19RandTie replays the Theorem 10 herding burst against stale-CPA with
// deterministic and with randomized tie-breaking. Both algorithms see the
// same u-slot-stale information; only the tie rule differs. Deterministic
// ties herd every simultaneous arrival onto one plane; random ties scatter
// them, collapsing the concentration — evidence that the lower bound's
// adversary exploits determinism, as the paper's Discussion anticipates
// for randomized demultiplexing algorithms.
func e19RandTie() (*Table, error) {
	const n, k, rp, u = 32, 16, 8, 4 // S = 2, u' = min(u, r'/2) = 4
	t := &Table{
		ID:      "E19",
		Title:   "Stale-CPA tie-breaking ablation under the Theorem 10 burst",
		Claim:   "(ablation) with identical stale information, randomizing only the tie-break disperses the herd",
		Columns: []string{"tie rule", "min RQD", "mean RQD", "max RQD"},
		Notes: []string{
			"same blind-window burst for every row; random rows aggregate over seeds",
		},
	}
	const seeds = 50
	tr, err := adversary.Herding(adversary.HerdingSpec{
		N: n, Out: 0, Slots: u, PerSlot: u * n / k, LeadIn: 4,
	})
	if err != nil {
		return nil, err
	}
	cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}

	det, err := harness.Run(cfg,
		func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPA(e, u) },
		tr, harness.Options{})
	if err != nil {
		return nil, fmt.Errorf("E19 deterministic: %w", err)
	}
	t.AddRow("deterministic (lowest index)", itoa(det.Report.MaxRQD), itoa(det.Report.MaxRQD), itoa(det.Report.MaxRQD))

	var dist stats.Summary
	for seed := 0; seed < seeds; seed++ {
		res, err := harness.Run(cfg,
			func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPARandomTie(e, u, int64(seed)) },
			tr, harness.Options{})
		if err != nil {
			return nil, fmt.Errorf("E19 seed=%d: %w", seed, err)
		}
		dist.Add(int64(res.Report.MaxRQD))
	}
	t.AddRow(fmt.Sprintf("randomized (%d seeds)", seeds),
		itoa(dist.Min()), ftoa(dist.Mean()), itoa(dist.Max()))
	if det.Report.MaxRQD <= cell.Time(dist.Max()) {
		t.Notes = append(t.Notes, "WARNING: randomization did not beat determinism at this geometry")
	}
	return t, nil
}
