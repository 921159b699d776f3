package experiments

import (
	"fmt"

	"ppsim/internal/adversary"
	"ppsim/internal/bounds"
	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
)

func init() {
	register("E2", "Lemma 4: the concentration scenario", e2Lemma4)
	register("E3", "Theorem 6: d-partitioned fully-distributed dispatch", e3Theorem6)
	register("E4", "Corollary 7: unpartitioned dispatch does not scale with N", e4Corollary7)
	register("E5", "Theorem 8: static partitioning and the N/S bound", e5Theorem8)
}

func rrFactory(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerInput) }

// e2Lemma4 forces c cells for one output through one plane and compares the
// measured relative queuing delay and jitter with Lemma 4's expressions.
func e2Lemma4() (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "Lemma 4 concentration scenario",
		Claim:   "c same-plane cells arriving over s slots cost RQD and RDJ >= c*R/r - (s + B)",
		Columns: []string{"c", "r'", "measured RQD", "measured RDJ", "paper LB c*r'-(s+B)", "model exact (c-1)(r'-1)"},
		Notes: []string{
			"s = c (one arrival per slot), B = 0; the model's exact value is (c-1)(r'-1) because the first cell crosses in its arrival slot — same Theta, tighter constant",
			"the jitter witness is the proof's extra cell a' on the delayed flow, sent after the buffers drain (Lemma 4, part 2)",
		},
	}
	cs := []int{2, 4, 8, 16, 32, 64}
	const rp = 3
	for _, c := range cs {
		cfg := fabric.Config{N: c, K: 4, RPrime: rp, CheckInvariants: true}
		tr, err := adversary.Concentration(c, c, 0)
		if err != nil {
			return nil, err
		}
		// Lemma 4 part 2: a lone cell a' of the most-delayed flow, sent
		// once every buffer is empty, departs immediately; the flow's
		// jitter is then the full concentration delay.
		witnessAt := cell.Time(c*rp + rp + 2)
		if err := tr.Add(witnessAt, cell.Port(c-1), 0); err != nil {
			return nil, err
		}
		res, err := harness.Run(cfg, rrFactory, tr, harness.Options{Validate: true})
		if err != nil {
			return nil, fmt.Errorf("E2 c=%d: %w", c, err)
		}
		g := bounds.Params{N: c, K: 4, RPrime: rp}
		paperLB := bounds.Lemma4(g, c, c, 0) // s = c, B = 0
		exact := bounds.Lemma4ModelExact(g, c)
		t.AddRow(itoa(c), itoa(rp), itoa(res.Report.MaxRQD), itoa(res.Report.RDJ), ftoa(paperLB), itoa(exact))
	}
	return t, nil
}

// e3Theorem6 aligns the |I| demultiplexors sharing a plane via the steering
// adversary (Figure 2 of the paper) and measures the concentration cost.
func e3Theorem6() (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Theorem 6: d demultiplexors sharing a (plane, output) pair",
		Claim:   "d-partitioned fully-distributed demux has RQD, RDJ >= (R/r - 1) * d under burstless traffic",
		Columns: []string{"N", "d=|I|", "burstiness B", "measured RQD", "measured RDJ", "bound (r'-1)d"},
	}
	ns := []int{8, 16, 32, 64}
	const k, rp, part = 8, 2, 2 // partition size 2, so |I| = N*part/K = N/4
	for _, n := range ns {
		cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
		factory := func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaticPartition(e, part) }
		plane := cell.Plane(part) // a plane in group 1
		inputs := adversary.PartitionInputs(n, k, part, plane)
		tr, err := adversary.Steering(adversary.SteeringSpec{
			Fabric: cfg, Factory: factory,
			Inputs: inputs, Out: 0, Plane: plane,
		})
		if err != nil {
			return nil, fmt.Errorf("E3 N=%d: %w", n, err)
		}
		res, err := harness.Run(cfg, factory, tr, harness.Options{Validate: true})
		if err != nil {
			return nil, fmt.Errorf("E3 N=%d: %w", n, err)
		}
		d := len(inputs)
		bd := bounds.Theorem6(bounds.Params{N: n, K: k, RPrime: rp}, d)
		t.AddRow(itoa(n), itoa(d), itoa(res.Burstiness),
			itoa(res.Report.MaxRQD), itoa(res.Report.RDJ), ftoa(bd))
	}
	return t, nil
}

// e4Corollary7 is the headline scaling result: with unpartitioned
// fully-distributed dispatch the relative queuing delay grows linearly in
// the port count N.
func e4Corollary7() (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Corollary 7: RQD of unpartitioned fully-distributed dispatch grows with N",
		Claim:   "unpartitioned fully-distributed demux has RQD, RDJ >= (R/r - 1) * N under burstless traffic",
		Columns: []string{"N", "burstiness B", "measured RQD", "measured RDJ", "bound (r'-1)N", "measured/bound"},
		Notes: []string{
			"the measured/bound ratio approaching 1 as N grows is the paper's non-scalability message: doubling the port count doubles the worst-case relative delay",
		},
	}
	ns := []int{4, 8, 16, 32, 64, 128}
	const k, rp = 4, 2
	for _, n := range ns {
		cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
		inputs := adversary.AllInputs(n)
		tr, err := adversary.Steering(adversary.SteeringSpec{
			Fabric: cfg, Factory: rrFactory,
			Inputs: inputs, Out: 0, Plane: 1,
			ScrambleSlots: 24, ScrambleSeed: int64(n),
		})
		if err != nil {
			return nil, fmt.Errorf("E4 N=%d: %w", n, err)
		}
		res, err := harness.Run(cfg, rrFactory, tr, harness.Options{Validate: true})
		if err != nil {
			return nil, fmt.Errorf("E4 N=%d: %w", n, err)
		}
		bound := bounds.Corollary7(bounds.Params{N: n, K: k, RPrime: rp})
		t.AddRow(itoa(n), itoa(res.Burstiness), itoa(res.Report.MaxRQD), itoa(res.Report.RDJ),
			ftoa(bound), ftoa(float64(res.Report.MaxRQD)/bound))
	}
	return t, nil
}

// e5Theorem8 fixes N and sweeps the speedup: the measured worst case decays
// as N/S.
func e5Theorem8() (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Theorem 8: worst-case RQD decays as N/S",
		Claim:   "any fully-distributed demux has RQD, RDJ >= (R/r - 1) * N/S under burstless traffic",
		Columns: []string{"K", "S", "|I|=N/S", "measured RQD", "bound (r'-1)N/S"},
	}
	const n, rp, part = 32, 2, 2
	ks := []int{2, 4, 8, 16, 32}
	for _, k := range ks {
		cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
		factory := func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaticPartition(e, part) }
		plane := cell.Plane(0)
		inputs := adversary.PartitionInputs(n, k, part, plane)
		tr, err := adversary.Steering(adversary.SteeringSpec{
			Fabric: cfg, Factory: factory,
			Inputs: inputs, Out: 0, Plane: plane,
		})
		if err != nil {
			return nil, fmt.Errorf("E5 K=%d: %w", k, err)
		}
		res, err := harness.Run(cfg, factory, tr, harness.Options{Validate: true})
		if err != nil {
			return nil, fmt.Errorf("E5 K=%d: %w", k, err)
		}
		g := bounds.Params{N: n, K: k, RPrime: rp}
		t.AddRow(itoa(k), ftoa(g.Speedup()), itoa(len(inputs)), itoa(res.Report.MaxRQD), ftoa(bounds.Theorem8(g)))
	}
	return t, nil
}
