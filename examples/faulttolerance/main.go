// Fault tolerance: Section 3 of the paper argues that each demultiplexor
// should be able to send any cell through any plane, because a statically
// partitioned switch turns one plane failure into a stranded group of
// inputs. This example runs that contrast as a degraded execution instead
// of an abort: plane 0 suffers a mid-run outage (slots 500-1200) under the
// DropCount policy, and the drop ledger shows who pays for it.
//
//   - rr (unpartitioned, fault-blind): every input keeps rotating through
//     the dead plane, so every input loses cells — but the losses are
//     spread thin, and K-1 = 3 >= r' planes of capacity remain.
//
//   - faultaware(rr): the same round-robin with failed planes masked from
//     its candidate set. Only the backlog plane 0 held at the failure
//     instant is lost; no fresh cell is ever dispatched into the outage.
//
//   - partition (d = 2): inputs outside the dead plane's group lose
//     nothing, but the group itself is left with d-1 = 1 < r' = 2 planes —
//     below what rate R needs (footnote 4) — and its drops pile up.
//
// Run it with:
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"

	"ppsim"
)

func main() {
	const n, k, rPrime = 16, 4, 2
	const horizon = 2000

	// One shared schedule: plane 0 fails at slot 500 and recovers at 1200.
	// A built schedule is immutable and may be reused across runs.
	sched := ppsim.NewFaultSchedule().Outage(0, 500, 1200)

	fmt.Printf("PPS N=%d K=%d r'=%d, plane 0 out for slots [500, 1200), DropCount policy\n\n", n, k, rPrime)
	fmt.Printf("%-16s %8s %8s %10s  %s\n", "algorithm", "cells", "drops", "loss", "inputs hit")
	for _, alg := range []ppsim.Algorithm{
		{Name: "rr"},
		{Name: "rr", FaultAware: true},
		{Name: "partition", D: 2},
	} {
		cfg := ppsim.Config{N: n, K: k, RPrime: rPrime, Algorithm: alg}
		src := ppsim.NewBernoulli(n, 0.55, horizon, 1)
		res, err := ppsim.Run(cfg, src, ppsim.Options{
			Faults:      sched,
			FaultPolicy: ppsim.FaultDropCount,
		})
		if err != nil {
			fmt.Println("run failed:", err)
			return
		}
		var hit []int
		for in, d := range res.Report.DropsPerInput {
			if d > 0 {
				hit = append(hit, in)
			}
		}
		total := res.Report.Cells + res.Drops
		fmt.Printf("%-16s %8d %8d %9.2f%%  %d/%d %v\n",
			res.AlgorithmName, total, res.Drops,
			100*float64(res.Drops)/float64(total), len(hit), n, hit)
	}

	fmt.Println()
	fmt.Println("rr spreads the outage across every input; masking (faultaware) reduces the loss")
	fmt.Println("to the backlog stranded inside plane 0 at the failure instant; the partitioned")
	fmt.Println("switch shields the other groups completely but concentrates the damage on the")
	fmt.Println("dead plane's group, which keeps d-1 = 1 < r' = 2 planes and cannot sustain rate R")
	fmt.Println("— the paper's footnote 4. Fault tolerance therefore dictates unpartitioned")
	fmt.Println("dispatch, which is exactly the regime of Corollary 7's Omega(N) lower bound.")
}
