package experiments

import (
	"fmt"

	"ppsim/internal/adversary"
	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/netcalc"
	"ppsim/internal/shadow"
	"ppsim/internal/traffic"
)

func init() {
	register("E21", "Network calculus: Cruz bounds vs measured executions", e21Calculus)
	register("E22", "Birkhoff-von Neumann traffic through the PPS", e22BvN)
}

// e21Calculus validates the calculus facts the paper leans on (Cruz [9]):
// the reference switch's delay and backlog are bounded by the traffic
// burstiness, and concentration onto one plane is exactly the regime where
// the single-plane service curve cannot carry rate R.
func e21Calculus() (*Table, error) {
	const n, bb = 8, 5
	t := &Table{
		ID:      "E21",
		Title:   "Cruz calculus bounds vs measured executions",
		Claim:   "(substrate, [9]) under (R,B) traffic a work-conserving switch needs at most B buffering and delays cells at most B slots; a single rate-r plane path cannot carry rate R at all",
		Columns: []string{"quantity", "calculus bound", "measured"},
	}
	horizon := cell.Time(2000)

	// Measured shadow delay and backlog under shaped (R, B=bb) traffic: a
	// cell's delay is its Oracle departure minus its arrival, and output j
	// still holds Peek(t+1, j) - (t+1) cells after slot t.
	demand := traffic.NewRegulator(n, bb, traffic.NewBernoulli(n, 0.8, horizon, 3))
	sh := shadow.NewOracle(n)
	var worstDelay cell.Time
	worstQ := 0
	var buf []traffic.Arrival
	for slot := cell.Time(0); slot < horizon*8; slot++ {
		buf = demand.Arrivals(slot, buf[:0])
		for _, a := range buf {
			worstDelay = max(worstDelay, sh.Departure(slot, a.Out)-slot)
		}
		for j := 0; j < n; j++ {
			worstQ = max(worstQ, int(sh.Peek(slot+1, cell.Port(j))-(slot+1)))
		}
		if slot > horizon && sh.Backlog(slot) == 0 {
			break
		}
	}
	dBound, err := netcalc.DelayBound(netcalc.FromLeakyBucket(1, bb), netcalc.OQOutputPort())
	if err != nil {
		return nil, err
	}
	qBound, err := netcalc.BacklogBound(netcalc.FromLeakyBucket(1, bb), netcalc.OQOutputPort())
	if err != nil {
		return nil, err
	}
	t.AddRow("reference switch max delay (B=5)", ftoa(dBound), itoa(worstDelay))
	t.AddRow("reference switch max backlog (B=5)", ftoa(qBound), itoa(worstQ))

	// Concentration: a single plane path (rate 1/r') offered rate R is
	// unstable; the measured plane backlog grows linearly with the number
	// of concentrated cells.
	const k, rp = 4, 3
	for _, c := range []int{8, 16} {
		cfg := fabric.Config{N: c, K: k, RPrime: rp, CheckInvariants: true}
		tr, err := adversary.Concentration(c, c, 0)
		if err != nil {
			return nil, err
		}
		res, err := harness.Run(cfg, rrFactory, tr, harness.Options{})
		if err != nil {
			return nil, fmt.Errorf("E21 c=%d: %w", c, err)
		}
		if _, err := netcalc.DelayBound(netcalc.FromLeakyBucket(1, 0), netcalc.PPSPlanePath(rp)); err == nil {
			return nil, fmt.Errorf("E21: single-plane path should be unstable at rate R")
		}
		t.AddRow(fmt.Sprintf("single-plane peak backlog (c=%d)", c),
			"unbounded (rate R > 1/r')", itoa(res.PeakPlaneQueue))
	}

	// The aggregate of all K planes carries rate R with latency r'-1.
	aggD, err := netcalc.DelayBound(netcalc.FromLeakyBucket(1, 0), netcalc.PPSAggregate(k, rp))
	if err != nil {
		return nil, err
	}
	cfgAgg := fabric.Config{N: 8, K: k, RPrime: rp, CheckInvariants: true}
	perm, err := traffic.NewPermutation([]cell.Port{1, 2, 3, 4, 5, 6, 7, 0}, horizon/4)
	if err != nil {
		return nil, err
	}
	resAgg, err := harness.Run(cfgAgg,
		func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.MinAvail) },
		perm, harness.Options{})
	if err != nil {
		return nil, err
	}
	t.AddRow("K-plane aggregate max delay (rate-R flow, CPA)", ftoa(aggD), itoa(resAgg.Report.MaxPPSDelay))
	return t, nil
}

// e22BvN drives the switch with deterministic Birkhoff-von Neumann traffic:
// admissible rate matrices realized as permutation schedules, the smooth
// counterpoint to the adversarial traces.
func e22BvN() (*Table, error) {
	const n, k, rp = 8, 8, 4 // S = 2
	t := &Table{
		ID:      "E22",
		Title:   "Deterministic BvN rate-matrix traffic",
		Claim:   "(substrate) any doubly-substochastic demand, scheduled by its BvN decomposition, is admissible with burstiness bounded by the decomposition size; CPA carries it with zero relative delay",
		Columns: []string{"demand matrix", "perms", "measured B", "algorithm", "mean RQD", "max RQD"},
	}
	horizon := cell.Time(3000)
	matrices := []struct {
		name string
		mk   func() [][]float64
	}{
		{"uniform 0.8", func() [][]float64 {
			m := make([][]float64, n)
			for i := range m {
				m[i] = make([]float64, n)
				for j := range m[i] {
					m[i][j] = 0.8 / n
				}
			}
			return m
		}},
		{"diagonal+spill", func() [][]float64 {
			m := make([][]float64, n)
			for i := range m {
				m[i] = make([]float64, n)
				for j := range m[i] {
					if i == j {
						m[i][j] = 0.6
					} else {
						m[i][j] = 0.3 / float64(n-1)
					}
				}
			}
			return m
		}},
	}
	algs := []struct {
		name string
		mk   func(demux.Env) (demux.Algorithm, error)
	}{
		{"cpa", func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.MinAvail) }},
		{"rr", rrFactory},
	}
	for _, m := range matrices {
		src, err := traffic.NewBvN(m.mk(), horizon, 0)
		if err != nil {
			return nil, fmt.Errorf("E22 %s: %w", m.name, err)
		}
		perms := src.Permutations()
		// Materialize once so both algorithms see identical cells.
		trace, err := materialize(n, src, horizon)
		if err != nil {
			return nil, err
		}
		for _, a := range algs {
			cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
			res, err := harness.Run(cfg, a.mk, trace, harness.Options{Validate: true})
			if err != nil {
				return nil, fmt.Errorf("E22 %s/%s: %w", m.name, a.name, err)
			}
			t.AddRow(m.name, itoa(perms), itoa(res.Burstiness), a.name,
				ftoa(res.Report.MeanRQD), itoa(res.Report.MaxRQD))
		}
	}
	return t, nil
}
