package experiments

import (
	"fmt"
	"sort"

	"ppsim/internal/adversary"
	"ppsim/internal/bounds"
	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/traffic"
)

func init() {
	register("E11", "Baseline [14]: centralized CPA across speedups", e11CPABaseline)
	register("E12", "Baseline [15]: distributed CPA tightness Theta(N*R/r)", e12DistCPA)
	register("E13", "Average case: worst-case bounds vs random traffic", e13AverageCase)
}

// e11CPABaseline sweeps the speedup: CPA mimics the FCFS OQ switch exactly
// from S = 2 upward, and degrades gracefully below.
func e11CPABaseline() (*Table, error) {
	const n, rp = 12, 3
	t := &Table{
		ID:      "E11",
		Title:   "CPA relative queuing delay across speedups",
		Claim:   "a bufferless PPS with the centralized CPA and speedup S >= 2 has zero relative queuing delay [Iyer-Awadallah-McKeown]",
		Columns: []string{"K", "S", "measured RQD", "mean RQD", "zero expected?"},
	}
	ks := []int{3, 4, 6, 9, 12}
	horizon := cell.Time(1500)
	for _, k := range ks {
		cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
		src := traffic.NewRegulator(n, 3, traffic.NewBernoulli(n, 0.8, horizon, int64(k)))
		res, err := harness.Run(cfg,
			func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.MinAvail) },
			src, harness.Options{Horizon: horizon * 4})
		if err != nil {
			return nil, fmt.Errorf("E11 K=%d: %w", k, err)
		}
		s := float64(k) / float64(rp)
		expect := "no (S < 2)"
		if s >= bounds.CPAZeroDelaySpeedup() {
			expect = "yes"
		}
		t.AddRow(itoa(k), ftoa(s), itoa(res.Report.MaxRQD), ftoa(res.Report.MeanRQD), expect)
	}
	return t, nil
}

// e12DistCPA bounds the fully-distributed per-flow dispatcher between the
// Corollary 7 lower bound and the Iyer-McKeown N*R/r upper bound.
func e12DistCPA() (*Table, error) {
	const k, rp = 4, 2 // S = 2
	t := &Table{
		ID:      "E12",
		Title:   "Distributed CPA (per-flow dispatch): Theta(N * R/r) is tight",
		Claim:   "the fully-distributed algorithm of [15] mimics FCFS OQ within N*R/r slots; Corollary 7 gives the matching Omega((R/r-1)N)",
		Columns: []string{"N", "measured RQD (steered)", "lower bound (r'-1)N", "upper bound N*r'"},
	}
	ns := []int{8, 16, 32, 64}
	factory := func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerFlow) }
	for _, n := range ns {
		cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
		inputs := adversary.AllInputs(n)
		tr, err := adversary.Steering(adversary.SteeringSpec{
			Fabric: cfg, Factory: factory, Inputs: inputs, Out: 0, Plane: 2,
			ScrambleSlots: 16, ScrambleSeed: int64(n) + 1,
		})
		if err != nil {
			return nil, fmt.Errorf("E12 N=%d: %w", n, err)
		}
		res, err := harness.Run(cfg, factory, tr, harness.Options{})
		if err != nil {
			return nil, fmt.Errorf("E12 N=%d: %w", n, err)
		}
		g := bounds.Params{N: n, K: k, RPrime: rp}
		ub := bounds.IyerMcKeownUpper(g)
		if got := int64(res.Report.MaxRQD); got > ub {
			return nil, fmt.Errorf("E12 N=%d: measured %d exceeds the paper's upper bound %d", n, got, ub)
		}
		t.AddRow(itoa(n), itoa(res.Report.MaxRQD), ftoa(bounds.Corollary7(g)), itoa(ub))
	}
	return t, nil
}

// e13AverageCase contrasts the adversarial bounds with plain random
// traffic: on average the fully-distributed algorithms are fine — the
// paper's results are about worst cases, which is why the adversary
// matters.
func e13AverageCase() (*Table, error) {
	const n, k, rp = 16, 8, 2 // S = 4
	t := &Table{
		ID:      "E13",
		Title:   "Average case: algorithms under random admissible traffic",
		Claim:   "(contrast) the lower bounds are worst-case; under Bernoulli traffic fully-distributed dispatch performs close to CPA",
		Columns: []string{"algorithm", "traffic", "mean RQD", "p99 RQD", "max RQD"},
	}
	horizon := cell.Time(3000)
	algs := []struct {
		name string
		mk   func(demux.Env) (demux.Algorithm, error)
	}{
		{"cpa", func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.MinAvail) }},
		{"rr", rrFactory},
		{"perflow-rr", func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerFlow) }},
		{"random", func(e demux.Env) (demux.Algorithm, error) { return demux.NewRandom(e, 5) }},
		{"stale-cpa u=4", func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPA(e, 4) }},
		{"ftd h=2", func(e demux.Env) (demux.Algorithm, error) { return demux.NewFTD(e, 2) }},
	}
	kinds := []struct {
		label string
		mk    func(seed int64) traffic.Source
	}{
		{"Bernoulli 0.7 (shaped B=8)", func(seed int64) traffic.Source {
			return traffic.NewRegulator(n, 8, traffic.NewBernoulli(n, 0.7, horizon, seed))
		}},
		{"hotspot 30% (shaped B=8)", func(seed int64) traffic.Source {
			h, err := traffic.NewHotspot(n, 0.5, 0.3, 0, horizon, seed)
			if err != nil {
				panic(err)
			}
			return traffic.NewRegulator(n, 8, h)
		}},
	}
	for _, a := range algs {
		for _, kind := range kinds {
			cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
			res, err := harness.Run(cfg, a.mk, kind.mk(42), harness.Options{Horizon: horizon * 4})
			if err != nil {
				return nil, fmt.Errorf("E13 %s/%s: %w", a.name, kind.label, err)
			}
			t.AddRow(a.name, kind.label, ftoa(res.Report.MeanRQD), itoa(res.Report.P99RQD), itoa(res.Report.MaxRQD))
		}
	}
	sort.SliceStable(t.Rows, func(i, j int) bool { return t.Rows[i][1] < t.Rows[j][1] })
	return t, nil
}
