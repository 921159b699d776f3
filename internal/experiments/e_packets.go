package experiments

import (
	"fmt"
	"math/rand"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/framer"
	"ppsim/internal/harness"
	"ppsim/internal/stats"
)

func init() {
	register("E25", "Packets, not cells: segmentation and reassembly around the switch", e25Packets)
}

// e25Packets runs a variable-length packet workload through the
// fragmentation/reassembly path the paper assumes exists outside the
// switch, and reports packet-level delay (offer to last-cell departure)
// next to cell-level relative delay. A packet rides its slowest cell, so
// cell-delay tails amplify at packet granularity — one more reason the
// worst-case cell bounds of the paper matter to applications.
func e25Packets() (*Table, error) {
	const n, k, rp = 8, 8, 4 // S = 2
	t := &Table{
		ID:      "E25",
		Title:   "Packet-level delay through segmentation + PPS + reassembly",
		Claim:   "(substrate, Section 1) cells are the switch's unit; packets are the application's — packet delay is the max over the packet's cells, so cell tails amplify",
		Columns: []string{"algorithm", "packets", "mean pkt delay", "p99 pkt delay", "max pkt delay", "max cell RQD"},
	}
	const packets = 400
	algs := []struct {
		name string
		mk   func(demux.Env) (demux.Algorithm, error)
	}{
		{"cpa", func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.MinAvail) }},
		{"rr", rrFactory},
		{"perflow-rr", func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerFlow) }},
	}
	for _, a := range algs {
		seg := framer.NewSegmenter(n)
		rng := rand.New(rand.NewSource(77))
		at := cell.Time(0)
		for p := 0; p < packets; p++ {
			f := cell.Flow{In: cell.Port(rng.Intn(n)), Out: cell.Port(rng.Intn(n))}
			if _, err := seg.Offer(f, 1+rng.Intn(8), at); err != nil {
				return nil, err
			}
			// ~0.6 cells/slot/input on average across n inputs.
			at += cell.Time(rng.Intn(2))
		}
		ras := framer.NewReassembler(seg)
		cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
		res, err := harness.Run(cfg, a.mk, seg, harness.Options{
			Horizon: cell.Time(packets * 24),
			OnPPSDepart: func(c cell.Cell) {
				if err := ras.OnDepart(c); err != nil {
					panic(err)
				}
			},
		})
		if err != nil {
			return nil, fmt.Errorf("E25 %s: %w", a.name, err)
		}
		if ras.Completed() != packets {
			return nil, fmt.Errorf("E25 %s: completed %d of %d packets", a.name, ras.Completed(), packets)
		}
		var dist stats.Summary
		for _, p := range seg.Offered() {
			d, ok := ras.Delay(p)
			if !ok {
				return nil, fmt.Errorf("E25 %s: packet %d incomplete", a.name, p.ID)
			}
			dist.Add(int64(d))
		}
		t.AddRow(a.name, itoa(packets), ftoa(dist.Mean()), itoa(dist.Percentile(99)),
			itoa(dist.Max()), itoa(res.Report.MaxRQD))
	}
	return t, nil
}
