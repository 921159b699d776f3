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
	register("E20", "Diagnostic: where inside the PPS does the delay live?", e20Stages)
}

// e20Stages decomposes each algorithm's delay into the three places a cell
// can wait — the input-port buffer, the plane (queue plus both rate-r line
// hops), and the output-port resequencing buffer — under the adversarial
// concentration and under random traffic. The decomposition localizes each
// theorem's mechanism: the fully-distributed bounds live in the plane
// stage, Theorem 12's u-slot price lives in the input stage, and per-flow
// spreading (perflow-rr/ftd) pays a visible resequencing component.
func e20Stages() (*Table, error) {
	const n, k, rp = 16, 8, 4 // S = 2
	t := &Table{
		ID:      "E20",
		Title:   "Delay-stage decomposition (mean slots per cell)",
		Claim:   "(diagnostic) the lower-bound mechanisms are localized: concentration delay accrues in the planes, Theorem 12's lag in the input buffers, spreading's reordering at the outputs",
		Columns: []string{"algorithm", "traffic", "input wait", "plane wait", "reseq wait", "max RQD"},
	}
	algs := []struct {
		name   string
		mk     func(demux.Env) (demux.Algorithm, error)
		bufCap int
	}{
		{"rr", rrFactory, 0},
		{"perflow-rr", func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerFlow) }, 0},
		{"cpa", func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.MinAvail) }, 0},
		{"buffered-cpa u=4", func(e demux.Env) (demux.Algorithm, error) { return demux.NewBufferedCPA(e, 4, demux.MinAvail) }, 5},
	}
	horizon := cell.Time(1500)
	for _, a := range algs {
		cfg := fabric.Config{N: n, K: k, RPrime: rp, BufferCap: a.bufCap, CheckInvariants: true}

		conc, err := adversary.Concentration(n, n, 0)
		if err != nil {
			return nil, err
		}
		res, err := harness.Run(cfg, a.mk, conc, harness.Options{})
		if err != nil {
			return nil, fmt.Errorf("E20 %s concentration: %w", a.name, err)
		}
		t.AddRow(a.name, "concentration",
			ftoa(res.Report.MeanInputWait), ftoa(res.Report.MeanPlaneWait),
			ftoa(res.Report.MeanOutputWait), itoa(res.Report.MaxRQD))

		rand, err := materialize(n, traffic.NewRegulator(n, 4, traffic.NewBernoulli(n, 0.7, horizon, 21)), horizon)
		if err != nil {
			return nil, err
		}
		res2, err := harness.Run(cfg, a.mk, rand, harness.Options{})
		if err != nil {
			return nil, fmt.Errorf("E20 %s random: %w", a.name, err)
		}
		t.AddRow(a.name, "random (shaped B=4)",
			ftoa(res2.Report.MeanInputWait), ftoa(res2.Report.MeanPlaneWait),
			ftoa(res2.Report.MeanOutputWait), itoa(res2.Report.MaxRQD))
	}
	return t, nil
}
