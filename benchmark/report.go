package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"ppsim"
	"ppsim/internal/cell"
	"ppsim/internal/fabric"
	"ppsim/internal/metrics"
	"ppsim/internal/shadow"
)

// metricDef names one metric the runner emits. BENCHMARK.json lists exactly
// these (a test compares the two), and carries the regression bounds.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the simulator sees, measured with tracing off;
// the two timings are in nominal host seconds (host.go).
// Simulated statistics are deliberately not here: a simulator-speed change
// must leave them identical, which the digest enforces; and the share of
// failed runs is the result's failed/attempted pair, because an end-to-end
// metric must never read 0.
var endToEnd = []metricDef{
	{"cells_per_sec", "cells/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"alloc_bytes_per_cell", "B/cell", "lower"},
	{"allocs_per_kcell", "mallocs/kcell", "lower"},
}

var perLayer = []metricDef{
	// From the traced pass, per offered cell of the traced parts.
	{"traffic.ns_per_cell", "ns/cell", "lower"},
	{"traffic.calls", "count", "lower"},
	{"admission.ns_per_cell", "ns/cell", "lower"},
	{"admission.rejected_frac", "frac", "lower"},
	{"admission.expired_frac", "frac", "lower"},
	{"cell.stamp_ns_per_cell", "ns/cell", "lower"},
	{"fabric.ns_per_cell", "ns/cell", "lower"},
	{"fabric.ns_per_slot", "ns/slot", "lower"},
	{"fabric.slots_executed", "count", "lower"},
	{"fabric.slots_elided", "count", "higher"},
	{"fabric.elided_frac", "frac", "higher"},
	{"shadow.ns_per_cell", "ns/cell", "lower"},
	{"metrics.ns_per_cell", "ns/cell", "lower"},
	{"harness.self_ns_per_slot", "ns/slot", "lower"},
	{"traffic.share", "frac", "lower"},
	{"admission.share", "frac", "lower"},
	{"cell.share", "frac", "lower"},
	{"fabric.share", "frac", "lower"},
	{"metrics.share", "frac", "lower"},
	{"shadow.share", "frac", "lower"},
	{"harness.share", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.spans", "count", "lower"},
	// From the layer kernels, per replayed cell.
	{"demux.ns_per_cell", "ns/cell", "lower"},
	{"demux.cpa.ns_per_cell", "ns/cell", "lower"},
	{"demux.cpa-sets.ns_per_cell", "ns/cell", "lower"},
	{"demux.least-loaded.ns_per_cell", "ns/cell", "lower"},
	{"demux.random.ns_per_cell", "ns/cell", "lower"},
	{"demux.perflow-rr.ns_per_cell", "ns/cell", "lower"},
	{"timing.ns_per_cell", "ns/cell", "lower"},
	{"cell.store_ns_per_cell", "ns/cell", "lower"},
	{"plane.ns_per_cell", "ns/cell", "lower"},
	{"mux.ns_per_cell", "ns/cell", "lower"},
	{"mux.reseq_parked_peak", "cells", "lower"},
	{"shadow.oracle_ns_per_cell", "ns/cell", "lower"},
	{"metrics.kernel_ns_per_cell", "ns/cell", "lower"},
	{"metrics.alloc_bytes_per_cell", "B/cell", "lower"},
	{"obs.hist_ns_per_record", "ns/record", "lower"},
	{"fabric.residual_ns_per_cell", "ns/cell", "lower"},
	// Set-up breakdown, lower quartile of a batch of constructor calls.
	{"fabric.new_s", "s", "lower"},
	{"cell.stamper_new_s", "s", "lower"},
	{"metrics.recorder_new_s", "s", "lower"},
	{"shadow.new_s", "s", "lower"},
	{"traffic.new_s", "s", "lower"},
	// dense-par2 ÷ dense-bursty cells_per_sec; 0 on every other workload.
	{"fabric.par2_vs_serial", "ratio", "higher"},
	// The host probe's median reading around the untraced reference passes:
	// how contended the sandbox was while the ns/cell above were taken, which
	// are raw host time (host.go).
	{"host.ns_per_load", "ns/load", "lower"},
	// Simulated statistics: exact repeats, covered by the digest.
	{"model.rqd_max_slots", "slots", "lower"},
	{"model.rqd_p99_slots", "slots", "lower"},
	{"model.rdj_slots", "slots", "lower"},
	{"model.demux_wait_mean_slots", "slots", "lower"},
	{"model.plane_wait_mean_slots", "slots", "lower"},
	{"model.reseq_wait_mean_slots", "slots", "lower"},
	{"model.peak_plane_queue", "cells", "lower"},
	{"model.delivered_frac", "frac", "higher"},
	{"model.on_time_frac", "frac", "higher"},
	{"model.bound_headroom_slots", "slots", "higher"},
}

// values maps a metric name to its measured value.
type values map[string]float64

const (
	passWall              = "pass wall_s"
	passFabricPerAdmitted = "pass fabric ns/admitted cell"
)

// endToEndValues finishes a workload's untraced measurement: the repeats are
// in r.samples; set-up, the RSS children and the oracle pass run here.
func (r *runner) endToEndValues() (values, map[string]dist) {
	rate := summarise(r.rates())
	alloc := summarise(column(r.samples, func(s sample) float64 { return float64(s.AllocBytes) / float64(s.Offered) }))
	mallocs := summarise(column(r.samples, func(s sample) float64 { return 1000 * float64(s.Mallocs) / float64(s.Offered) }))
	setup := summarise(r.setupBatches(9, 900*time.Millisecond))
	rss := summarise(r.rssPeaks())
	r.oracle()
	return values{
			"cells_per_sec":        rate.Median,
			"setup_s":              setup.Median,
			"peak_rss_mb":          rss.Median,
			"alloc_bytes_per_cell": alloc.Median,
			"allocs_per_kcell":     mallocs.Median,
		}, map[string]dist{
			"cells_per_sec": rate, "setup_s": setup, "peak_rss_mb": rss, "alloc_bytes_per_cell": alloc, "allocs_per_kcell": mallocs,
		}
}

// tracedPass runs every traced part once through the traced driver, checks
// the replica against the untraced digest of the same parts, and returns the
// traces.
func (r *runner) tracedPass() []*trace {
	var traces []*trace
	for i, p := range r.parts {
		if !p.traced {
			continue
		}
		r.attempted++
		tr, err := runTraced(p)
		if err != nil {
			r.fail("traced pass: %s: %v", p.label, err)
			return nil
		}
		if r.results != nil && digestOf(tr.sim) != digestOf(simulatedOf(r.results[i])) {
			r.fail("traced pass: %s: the replica's statistics differ from ppsim.Run's", p.label)
			return nil
		}
		traces = append(traces, tr)
	}
	return traces
}

// tracedValues turns one traced pass into the per-layer metrics it carries,
// plus the pass's wall in seconds and the fabric's ns per admitted cell (the
// base of fabric.residual_ns_per_cell) under the keys passWall and
// passFabricPerAdmitted, which are not metrics.
func tracedValues(traces []*trace) values {
	var tot [numLayers]layerTotals
	var wall, loop, executed, elided, spans int64
	var offered, admitted, rejected, expired uint64
	for _, tr := range traces {
		for l := range tot {
			tot[l].BusyNS += tr.totals[l].BusyNS
			tot[l].BlockingNS += tr.totals[l].BlockingNS
			tot[l].Calls += tr.totals[l].Calls
		}
		wall += tr.WallNS
		executed += tr.Executed
		elided += tr.Elided
		spans += int64(len(tr.Spans))
		offered += tr.Offered
		admitted += tr.Admitted
		rejected += tr.Rejected
		expired += tr.Expired
	}
	for l := range tot {
		loop += tot[l].BlockingNS
	}
	perCell := func(l layer) float64 { return ratio(float64(tot[l].BusyNS), float64(offered)) }
	v := values{
		"traffic.ns_per_cell":      perCell(lyTraffic),
		"traffic.calls":            float64(tot[lyTraffic].Calls),
		"admission.ns_per_cell":    perCell(lyAdmission),
		"admission.rejected_frac":  ratio(float64(rejected), float64(offered)),
		"admission.expired_frac":   ratio(float64(expired), float64(offered)),
		"cell.stamp_ns_per_cell":   perCell(lyCell),
		"fabric.ns_per_cell":       perCell(lyFabric),
		"fabric.ns_per_slot":       ratio(float64(tot[lyFabric].BusyNS), float64(executed)),
		"fabric.slots_executed":    float64(executed),
		"fabric.slots_elided":      float64(elided),
		"fabric.elided_frac":       ratio(float64(elided), float64(executed+elided)),
		"shadow.ns_per_cell":       perCell(lyShadow),
		"metrics.ns_per_cell":      perCell(lyMetrics),
		"harness.self_ns_per_slot": ratio(float64(tot[lyHarness].BusyNS), float64(executed)),
		"trace.spans":              float64(spans),
		// Not metrics: what later steps need from this pass.
		passWall:              float64(wall) / 1e9,
		passFabricPerAdmitted: ratio(float64(tot[lyFabric].BusyNS), float64(admitted)),
	}
	for l := lyTraffic; l < numLayers; l++ {
		v[layerNames[l]+".share"] = ratio(float64(tot[l].BlockingNS), float64(loop))
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// kernelValues folds the parts' kernels into the workload's metrics,
// weighting each part by the cells it replayed.
func kernelValues(kts []kernelTimes) values {
	v := values{}
	cells := 0.0
	for _, kt := range kts {
		if kt.Skipped != "" {
			continue
		}
		w := float64(kt.Cells)
		cells += w
		v["demux.ns_per_cell"] += w * kt.Demux
		v["timing.ns_per_cell"] += w * kt.Timing
		v["cell.store_ns_per_cell"] += w * kt.Store
		v["plane.ns_per_cell"] += w * kt.Plane
		v["mux.ns_per_cell"] += w * kt.Mux
		v["shadow.oracle_ns_per_cell"] += w * kt.Oracle
		v["metrics.kernel_ns_per_cell"] += w * kt.Metrics
		v["metrics.alloc_bytes_per_cell"] += w * kt.MetricsAllocBytes
		v["obs.hist_ns_per_record"] += w * kt.Hist
		v["mux.reseq_parked_peak"] = math.Max(v["mux.reseq_parked_peak"], float64(kt.ReseqPeak))
	}
	for name := range v {
		if name != "mux.reseq_parked_peak" {
			v[name] = ratio(v[name], cells)
		}
	}
	for _, kt := range kts {
		name := "demux." + kt.Algorithm + ".ns_per_cell"
		if kt.Skipped == "" && isPerLayer(name) {
			v[name] = kt.Demux
		}
	}
	return v
}

func isPerLayer(name string) bool {
	for _, d := range perLayer {
		if d.Name == name {
			return true
		}
	}
	return false
}

// constructorValues times each layer's constructor on every part's geometry:
// the lower quartile of a batch, summed over the parts.
func (r *runner) constructorValues() values {
	v := values{}
	batch := func(fn func()) float64 {
		var s []float64
		start := time.Now()
		for len(s) < 40 && (len(s) < 5 || time.Since(start) < 50*time.Millisecond) {
			t0 := time.Now()
			fn()
			s = append(s, time.Since(t0).Seconds())
		}
		return summarise(s).Q1
	}
	for _, p := range r.parts {
		factory, err := algorithmFactory(p.cfg.Algorithm)
		if err != nil {
			r.attempted++
			r.fail("constructors: %v", err)
			return v
		}
		n := p.cfg.N
		v["fabric.new_s"] += batch(func() {
			if pps, err := fabric.New(fabricConfig(p), factory); err == nil {
				pps.Close()
			}
		})
		v["cell.stamper_new_s"] += batch(func() { cell.NewStamperSized(n) })
		v["metrics.recorder_new_s"] += batch(func() { metrics.NewRecorderSized(n) })
		v["shadow.new_s"] += batch(func() { shadow.New(n) })
		v["traffic.new_s"] += batch(func() { _, _ = p.newSrc() }) // a failing constructor already failed the repeats
	}
	return v
}

// modelValues reports the simulated statistics of the latest repeat: maxima
// over the parts for extremes, cell-weighted means for means.
func modelValues(parts []part, results []ppsim.Result) values {
	v := values{}
	var cells, offered, onTime float64
	headroom := math.Inf(1)
	for i, res := range results {
		rep := res.Report
		w := float64(rep.Cells)
		cells += w
		offered += float64(rep.Offered)
		onTime += float64(rep.OnTime)
		v["model.rqd_max_slots"] = math.Max(v["model.rqd_max_slots"], float64(rep.MaxRQD))
		v["model.rqd_p99_slots"] = math.Max(v["model.rqd_p99_slots"], float64(rep.P99RQD))
		v["model.rdj_slots"] = math.Max(v["model.rdj_slots"], float64(rep.RDJ))
		v["model.peak_plane_queue"] = math.Max(v["model.peak_plane_queue"], float64(res.PeakPlaneQueue))
		v["model.demux_wait_mean_slots"] += w * rep.MeanInputWait
		v["model.plane_wait_mean_slots"] += w * rep.MeanPlaneWait
		v["model.reseq_wait_mean_slots"] += w * rep.MeanOutputWait
		if b := parts[i].bound; b != noBound {
			headroom = math.Min(headroom, float64(b)-float64(rep.MaxRQD))
		}
	}
	for _, name := range []string{"model.demux_wait_mean_slots", "model.plane_wait_mean_slots", "model.reseq_wait_mean_slots"} {
		v[name] = ratio(v[name], cells)
	}
	v["model.delivered_frac"] = ratio(cells, offered)
	v["model.on_time_frac"] = ratio(onTime, offered)
	// The tightest margin to a theorem bound; 0 when no part has one.
	v["model.bound_headroom_slots"] = 0
	if !math.IsInf(headroom, 1) {
		v["model.bound_headroom_slots"] = headroom
	}
	return v
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Parts    []*trace      `json:"parts"`
	Kernels  []kernelTimes `json:"kernels"`
}

func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// printValues prints metrics by name with their units, in definition order.
func printValues(defs []metricDef, v values, dists map[string]dist) {
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-32s %16.6g %-14s", d.Name, x, d.Unit)
		if ds, ok := dists[d.Name]; ok && ds.N > 1 {
			line += fmt.Sprintf(" n=%d q1=%.6g q3=%.6g spread=%.1f%%", ds.N, ds.Q1, ds.Q3, 100*ds.spread())
		}
		if d.Name == "fabric.residual_ns_per_cell" && x < 0 {
			line += " NEGATIVE: the kernels cost more in isolation than the fabric does in situ"
		}
		fmt.Println(line)
	}
}
