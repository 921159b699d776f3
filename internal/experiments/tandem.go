package experiments

import (
	"fmt"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/stats"
	"ppsim/internal/traffic"
)

// tandemStage is one switch in a chain of switches run in series by
// runTandem: the departures of one stage are re-clocked as the arrivals of
// the next, with a port remapping in between (output j of stage s feeds
// input j of stage s+1; destinations are rewritten per stage). Multi-stage
// deployments are where relative queuing delay compounds — the
// Discussion's jitter-regulator sizing question and the Cruz end-to-end
// bounds (experiment E23) both live here.
//
// Cell identity across stages is tracked by per-input FIFO order. This is
// sound because Remap is a function of the departing output alone, so every
// next-stage input carries exactly one flow — and the switches preserve
// per-flow order, making per-input FIFO identical to per-flow FIFO.
type tandemStage struct {
	// Config is the stage's geometry.
	Config fabric.Config
	// Factory builds the stage's demultiplexing algorithm.
	Factory func(demux.Env) (demux.Algorithm, error)
	// Remap rewrites a departing cell's destination for the next stage
	// (the cell enters the next stage on the input matching the output it
	// departed from). nil keeps the destination.
	Remap func(out cell.Port) cell.Port
}

// tandemResult summarizes a runTandem run.
type tandemResult struct {
	// Stages holds each stage's own harness result (vs its own shadow).
	Stages []harness.Result
	// EndToEnd summarizes per-cell total delay: departure from the last
	// stage minus arrival at the first.
	EndToEnd struct {
		Mean float64
		P99  cell.Time
		Max  cell.Time
	}
	// Cells is the number of cells traced end to end.
	Cells int
}

// runTandem pushes src through the stages. Every stage must have the same
// port count. opts applies to each stage run (Horizon is interpreted per
// stage).
func runTandem(stages []tandemStage, src traffic.Source, opts harness.Options) (tandemResult, error) {
	if len(stages) == 0 {
		return tandemResult{}, fmt.Errorf("tandem: need at least one stage")
	}
	n := stages[0].Config.N
	for i, s := range stages[1:] {
		if s.Config.N != n {
			return tandemResult{}, fmt.Errorf("tandem: stage %d has %d ports, stage 0 has %d", i+1, s.Config.N, n)
		}
	}

	var res tandemResult
	// origin[stage][input][k] = first-stage arrival slot of the k-th cell
	// the stage receives on that input (per-input FIFO identity).
	cur := src
	var origins [][]cell.Time // per input: first-stage arrival slots, FIFO
	for si, st := range stages {
		var departs []cell.Cell
		opts := opts
		opts.OnPPSDepart = func(c cell.Cell) { departs = append(departs, c) }
		r, err := harness.Run(st.Config, st.Factory, cur, opts)
		if err != nil {
			return tandemResult{}, fmt.Errorf("tandem: stage %d: %w", si, err)
		}
		res.Stages = append(res.Stages, r)

		if si == 0 {
			// Seed identities from first-stage arrivals, keyed by the
			// output each cell leaves from (that is the next stage's
			// input), in departure order.
			origins = make([][]cell.Time, n)
			for _, c := range departs {
				origins[c.Flow.Out] = append(origins[c.Flow.Out], c.Arrive)
			}
		} else {
			next := make([][]cell.Time, n)
			idx := make([]int, n)
			for _, c := range departs {
				in := int(c.Flow.In)
				if idx[in] >= len(origins[in]) {
					return tandemResult{}, fmt.Errorf("tandem: stage %d input %d received more cells than stage %d delivered", si, in, si-1)
				}
				t0 := origins[in][idx[in]]
				idx[in]++
				next[c.Flow.Out] = append(next[c.Flow.Out], t0)
			}
			origins = next
		}

		if si == len(stages)-1 {
			// Final stage: compute end-to-end delays. Reconstruct each
			// departure's origin the same way the bookkeeping above did.
			var sum stats.Summary
			if si == 0 {
				for _, c := range departs {
					sum.Add(int64(c.Depart - c.Arrive))
				}
			} else {
				// origins was just rebuilt keyed by *this* stage's
				// outputs in departure order; replay departures again.
				idx := make([]int, n)
				for _, c := range departs {
					out := int(c.Flow.Out)
					t0 := origins[out][idx[out]]
					idx[out]++
					sum.Add(int64(c.Depart - t0))
				}
			}
			res.Cells = sum.N()
			res.EndToEnd.Mean = sum.Mean()
			res.EndToEnd.P99 = cell.Time(sum.Percentile(99))
			res.EndToEnd.Max = cell.Time(sum.Max())
			return res, nil
		}

		// Re-clock departures into the next stage's arrival trace.
		tr := traffic.NewTrace()
		remap := st.Remap
		for _, c := range departs {
			dst := c.Flow.Out
			if remap != nil {
				dst = remap(c.Flow.Out)
			}
			if err := tr.Add(c.Depart, c.Flow.Out, dst); err != nil {
				return tandemResult{}, fmt.Errorf("tandem: re-clocking stage %d: %w", si, err)
			}
		}
		cur = tr
	}
	return res, nil
}
