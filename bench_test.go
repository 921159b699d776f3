package ppsim_test

import (
	"testing"

	"ppsim"
	"ppsim/internal/experiments"
)

// One benchmark per regenerated table/figure (DESIGN.md §4). Each runs the
// experiment at the scale EXPERIMENTS.md publishes (ppsim exp), so
// `go test -bench` times the paper's shapes end to end.

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		tab, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFigure1Fabric(b *testing.B)           { benchExperiment(b, "E1") }
func BenchmarkLemma4Concentration(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkTheorem6Partitioned(b *testing.B)     { benchExperiment(b, "E3") }
func BenchmarkCorollary7Scaling(b *testing.B)       { benchExperiment(b, "E4") }
func BenchmarkTheorem8StaticPartition(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkTheorem10StaleInfo(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkTheorem12BufferedCPA(b *testing.B)    { benchExperiment(b, "E7") }
func BenchmarkTheorem13BufferedRR(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkTheorem14FTDX(b *testing.B)           { benchExperiment(b, "E9") }
func BenchmarkProposition15Burstiness(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkCPABaseline(b *testing.B)             { benchExperiment(b, "E11") }
func BenchmarkDistCPATightness(b *testing.B)        { benchExperiment(b, "E12") }
func BenchmarkAverageCase(b *testing.B)             { benchExperiment(b, "E13") }
func BenchmarkCrossbarISLIP(b *testing.B)           { benchExperiment(b, "E14") }
func BenchmarkJitterRegulatorBuffers(b *testing.B)  { benchExperiment(b, "E15") }
func BenchmarkCIOQSpeedup(b *testing.B)             { benchExperiment(b, "E16") }
func BenchmarkUniversality(b *testing.B)            { benchExperiment(b, "E17") }
func BenchmarkRandomizedDistribution(b *testing.B)  { benchExperiment(b, "E18") }
func BenchmarkRandTieAblation(b *testing.B)         { benchExperiment(b, "E19") }
func BenchmarkDelayStages(b *testing.B)             { benchExperiment(b, "E20") }
func BenchmarkCruzBounds(b *testing.B)              { benchExperiment(b, "E21") }
func BenchmarkBvNTraffic(b *testing.B)              { benchExperiment(b, "E22") }
func BenchmarkTandemPPS(b *testing.B)               { benchExperiment(b, "E23") }
func BenchmarkPlaneFailure(b *testing.B)            { benchExperiment(b, "E24") }
func BenchmarkPacketReassembly(b *testing.B)        { benchExperiment(b, "E25") }
func BenchmarkNonWorkConservingRef(b *testing.B)    { benchExperiment(b, "E26") }
func BenchmarkWFQIsolation(b *testing.B)            { benchExperiment(b, "E27") }

// --- Ablation benches (DESIGN.md §5) ---

// runOnce executes a standard workload and reports the measured relative
// delay as a benchmark metric alongside the runtime.
func runOnce(b *testing.B, cfg ppsim.Config, seed int64) {
	b.Helper()
	var maxRQD, cells float64
	for i := 0; i < b.N; i++ {
		src := ppsim.Shape(cfg.N, 4, ppsim.NewBernoulli(cfg.N, 0.75, 2000, seed))
		res, err := ppsim.Run(cfg, src, ppsim.Options{Horizon: 40_000})
		if err != nil {
			b.Fatal(err)
		}
		maxRQD = float64(res.Report.MaxRQD)
		cells = float64(res.Report.Cells)
	}
	b.ReportMetric(maxRQD, "maxRQD")
	b.ReportMetric(cells, "cells")
}

// BenchmarkAblationRRGranularity contrasts per-input and per-flow pointers.
func BenchmarkAblationRRGranularity(b *testing.B) {
	base := ppsim.Config{N: 16, K: 8, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "rr"}}
	b.Run("per-input", func(b *testing.B) { runOnce(b, base, 2) })
	pf := base
	pf.Algorithm.Name = "perflow-rr"
	b.Run("per-flow", func(b *testing.B) { runOnce(b, pf, 2) })
}

// BenchmarkAblationCPATieBreak contrasts min-availability and rotating
// tie-breaks in CPA.
func BenchmarkAblationCPATieBreak(b *testing.B) {
	base := ppsim.Config{N: 16, K: 8, RPrime: 4, Algorithm: ppsim.Algorithm{Name: "cpa"}}
	b.Run("min-avail", func(b *testing.B) { runOnce(b, base, 3) })
	rot := base
	rot.Algorithm.Name = "cpa-rotate"
	b.Run("rotate", func(b *testing.B) { runOnce(b, rot, 3) })
}
