package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"ppsim/internal/cell"
)

// tinyDiv shrinks each workload's horizons until the whole suite runs in a
// few seconds while every path (bursts, jumps, admission, faults, the
// overlapped shadow goroutine) is still exercised.
var tinyDiv = map[string]int64{
	"dense-bursty": 25, "dense-par2": 25, "sparse-long": 500,
	"dispatch-mix": 10, "overload-admit": 100, "sweep-small": 10,
}

// tinyRun runs workload w untraced and every part through the traced driver.
func tinyRun(t *testing.T, w *workload) ([]part, []*trace) {
	t.Helper()
	parts, err := w.parts(goldenSeed, tinyDiv[w.name])
	if err != nil {
		t.Fatal(err)
	}
	results, err := w.run(parts)
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]*trace, len(parts))
	for i, p := range parts {
		if res := results[i]; res.Engine != p.engine || res.Workers != p.workers {
			t.Errorf("%s/%s resolved to %s/%d, declared %s/%d", w.name, p.label, res.Engine, res.Workers, p.engine, p.workers)
		}
		tr, err := runTraced(p)
		if err != nil {
			t.Fatalf("%s/%s: traced driver: %v", w.name, p.label, err)
		}
		if got, want := digestOf(tr.sim), digestOf(simulatedOf(results[i])); got != want {
			t.Errorf("%s/%s: traced driver is not a replica of harness.Run:\n got %+v\nwant %+v", w.name, p.label, tr.sim, simulatedOf(results[i]))
		}
		traces[i] = tr
	}
	return parts, traces
}

// TestTracedDriverIsReplica is the licence for timing the layers from
// outside: on a tiny-horizon variant of every workload — every sweep point,
// so the admission, fault, buffered and stale paths too — the traced driver
// reproduces harness.Run's statistics exactly, and its spans account for the
// traced wall by construction.
func TestTracedDriverIsReplica(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		_, traces := tinyRun(t, w)
		for _, tr := range traces {
			var chunks, executed int64
			children := map[int]int64{}
			for _, s := range tr.Spans {
				if s.Parent != 0 {
					children[s.Parent] += s.BlockingNS
				}
			}
			for _, s := range tr.Spans {
				if s.Name != "chunk" {
					continue
				}
				if got, want := children[s.ID], s.EndNS-s.StartNS; got != want {
					t.Fatalf("%s/%s chunk %d: layers sum to %d ns, chunk spans %d ns", w.name, tr.Part, s.ID, got, want)
				}
				chunks += s.EndNS - s.StartNS
				executed += s.Executed
			}
			if setup := tr.Spans[0]; setup.Name != "setup" || setup.EndNS+chunks > tr.WallNS {
				t.Errorf("%s/%s: setup %d ns + chunks %d ns exceed the traced wall %d ns", w.name, tr.Part, setup.EndNS, chunks, tr.WallNS)
			}
			if executed != tr.Executed || tr.Executed+tr.Elided != int64(tr.sim.Slots) {
				t.Errorf("%s/%s: %d executed + %d elided slots, run took %d", w.name, tr.Part, tr.Executed, tr.Elided, tr.sim.Slots)
			}
		}
	}
}

// TestKernelsReproduceTheFabric replays every kernelable tiny stream: the
// demux kernel must choose every recorded plane and the mux kernel emit at
// every recorded slot — and both must notice when the record is wrong.
func TestKernelsReproduceTheFabric(t *testing.T) {
	replayed := 0
	for i := range workloads {
		w := &workloads[i]
		parts, traces := tinyRun(t, w)
		for j, p := range parts {
			kt, err := runKernels(p, traces[j])
			if err != nil {
				t.Errorf("%s/%s: %v", w.name, p.label, err)
			}
			if kt.Skipped == "" {
				replayed++
			}
		}
	}
	if replayed < len(workloads) {
		t.Errorf("only %d streams replayed", replayed)
	}

	w := findWorkload("dispatch-mix")
	parts, traces := tinyRun(t, w)
	tr := traces[0]
	tr.stream[len(tr.stream)/2].Via = (tr.stream[len(tr.stream)/2].Via + 1) % cell.Plane(parts[0].cfg.K)
	if _, err := runKernels(parts[0], tr); err == nil || !strings.Contains(err.Error(), "kernel") {
		t.Errorf("a wrong recorded plane went unnoticed: %v", err)
	}
	tr = traces[1]
	tr.stream[len(tr.stream)/2].Depart++
	if _, err := runKernels(parts[1], tr); err == nil || !strings.Contains(err.Error(), "mux kernel") {
		t.Errorf("a wrong recorded departure went unnoticed: %v", err)
	}
}

// TestPerLayerValues runs the per-layer pipeline (reference repeat, traced
// pass, kernels, constructors, trace file) on tiny runners. It must emit
// exactly the per_layer names, a trace overhead that was really measured, and
// a residual that is the fabric's time per admitted cell minus the kernels'.
func TestPerLayerValues(t *testing.T) {
	for _, name := range []string{"dense-bursty", "overload-admit"} {
		w := findWorkload(name)
		parts, err := w.parts(goldenSeed, tinyDiv[name])
		if err != nil {
			t.Fatal(err)
		}
		r := &runner{w: w, seed: goldenSeed, parts: parts}
		r.repeat(false)
		dir := t.TempDir()
		v, kts := r.perLayerValues(0, nil, dir)
		if r.failed != 0 || len(kts) != len(parts) {
			t.Fatalf("%s: %d of %d operations failed, %d kernel runs for %d parts", name, r.failed, r.attempted, len(kts), len(parts))
		}
		for _, d := range perLayer {
			if _, ok := v[d.Name]; !ok {
				t.Errorf("%s: %s is not emitted", name, d.Name)
			}
		}
		if len(v) != len(perLayer) {
			t.Errorf("%s: %d values emitted for %d per-layer metrics: %v", name, len(v), len(perLayer), v)
		}
		if v["trace.overhead_frac"] <= -1 || v["fabric.ns_per_cell"] <= 0 || v["mux.ns_per_cell"] <= 0 {
			t.Errorf("%s: trace.overhead_frac %g, fabric.ns_per_cell %g, mux.ns_per_cell %g were not measured",
				name, v["trace.overhead_frac"], v["fabric.ns_per_cell"], v["mux.ns_per_cell"])
		}

		b, err := os.ReadFile(dir + "/trace-" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			Parts []struct {
				Offered  float64 `json:"offered_cells"`
				Admitted float64 `json:"admitted_cells"`
			}
		}
		if err := json.Unmarshal(b, &tf); err != nil || len(tf.Parts) != 1 || tf.Parts[0].Admitted == 0 {
			t.Fatalf("%s: trace file: %v, parts %+v", name, err, tf.Parts)
		}
		if admitted := tf.Parts[0].Admitted < tf.Parts[0].Offered; admitted != (name == "overload-admit") {
			t.Errorf("%s: %g of %g cells admitted", name, tf.Parts[0].Admitted, tf.Parts[0].Offered)
		}
		kernels := v["demux.ns_per_cell"] + v["timing.ns_per_cell"] + v["cell.store_ns_per_cell"] + v["plane.ns_per_cell"] + v["mux.ns_per_cell"]
		want := v["fabric.ns_per_cell"]*tf.Parts[0].Offered/tf.Parts[0].Admitted - kernels
		if got := v["fabric.residual_ns_per_cell"]; math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Errorf("%s: fabric.residual_ns_per_cell = %g, want fabric per admitted cell − kernels = %g", name, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesRunner keeps BENCHMARK.json and the runner's own
// tables the same list, inside the limits the file format sets.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			metricDef
			Bound float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got, want metricDef) {
		if got != want {
			t.Errorf("%s: BENCHMARK.json has %+v, the runner emits %+v", kind, got, want)
		}
		if !name.MatchString(got.Name) || !unit.MatchString(got.Unit) || seen[got.Name] || (got.Better != "higher" && got.Better != "lower") {
			t.Errorf("%s %+v: bad or repeated name, unit or direction", kind, got)
		}
		seen[got.Name] = true
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("end_to_end: %d in BENCHMARK.json, %d in the runner (at most 16)", len(spec.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range spec.EndToEnd {
		check("end_to_end", m.metricDef, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.metricDef == metricDef{"setup_s", "s", "lower"}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("per_layer: %d in BENCHMARK.json, %d in the runner (at most 128)", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		check("per_layer", m, perLayer[i])
	}
	if len(spec.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("workloads: %d in BENCHMARK.json, %d in the runner (2 to 8)", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || !name.MatchString(w.Name) || seen[w.Name] ||
			len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the runner %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
		seen[w.Name] = true
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	// The per-algorithm demux metrics name dispatch-mix's algorithms.
	for _, alg := range dispatchAlgs {
		if !isPerLayer("demux." + alg + ".ns_per_cell") {
			t.Errorf("no per-layer metric for dispatch-mix algorithm %s", alg)
		}
	}
}

// TestQuartilesMatchPython pins summarise to statistics.quantiles(v, n=4),
// which the acceptance procedure uses for spreads.
func TestQuartilesMatchPython(t *testing.T) {
	d := summarise([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if d.N != 10 || d.Q1 != 2.75 || d.Median != 5.5 || d.Q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %+v, want 2.75 / 5.5 / 8.25", d)
	}
	if s := d.spread(); s != 1 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", s)
	}
}

// TestHostCalibration pins the direction of the calibration: a host whose
// probe reads twice the nominal cost turns two wall seconds into one nominal
// second, and the rate is per nominal second.
func TestHostCalibration(t *testing.T) {
	if got := nominalSeconds(2, 2*nominalLoadNS, 2*nominalLoadNS); got != 1 {
		t.Errorf("nominalSeconds(2 s at twice the nominal load cost) = %g, want 1", got)
	}
	r := &runner{samples: []sample{{WallS: 2, NominalS: 1, Offered: 300}}}
	if got := r.rates(); len(got) != 1 || got[0] != 300 {
		t.Errorf("rates = %v, want [300] cells per nominal second", got)
	}
	if a, b := hostNSPerLoad(), hostNSPerLoad(); a <= 0 || b <= 0 {
		t.Errorf("host probe read %g and %g ns per load", a, b)
	}
}

// TestGoldensCoverEveryWorkload keeps the committed digests in step with the
// workload list; their values are checked by every benchmark run.
func TestGoldensCoverEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		if sum, err := readGolden(w.name); err != nil || len(sum) != 64 {
			t.Errorf("golden/%s.json: %q, %v", w.name, sum, err)
		}
	}
}
