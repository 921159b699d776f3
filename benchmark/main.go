// Command benchmark is the repo's one ruler: six named workloads, the
// end-to-end metrics a user of the simulator sees, and per-layer ns/cell
// from a traced pass and layer kernels that time the layers from outside.
// README.md explains the protocol and how to cite a claim.
//
// It runs from this directory:
//
//	go run . -workload all            one set: every metric of every workload
//	go run . -aa                      two sets of the same binary, compared against the bounds
//	go run . -workload W -seed N -seconds S -trace 0|1    one measurement, result JSON on the last line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// goldenSeed is the seed the committed golden digests were taken at.
const goldenSeed = 1

// threads is the GOMAXPROCS every measurement runs under, recorded with it.
const threads = 2

type golden struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	SHA256   string `json:"sha256"`
}

func readGolden(name string) (string, error) {
	b, err := os.ReadFile("golden/" + name + ".json")
	if err != nil {
		return "", fmt.Errorf("golden digest (run from the benchmark directory; -update-golden writes it): %w", err)
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return "", fmt.Errorf("golden/%s.json: %w", name, err)
	}
	return g.SHA256, nil
}

// partInfo records what one part resolved to.
type partInfo struct {
	Label      string `json:"label"`
	Engine     string `json:"engine"`
	Workers    int    `json:"workers"`
	ShardPorts []int  `json:"shard_ports,omitempty"`
	Slots      int64  `json:"slots"`
	Offered    uint64 `json:"offered_cells"`
}

// report is everything measured for one workload in one set.
type report struct {
	Workload  string          `json:"workload"`
	Why       string          `json:"why"`
	Seed      int64           `json:"seed"`
	Parts     []partInfo      `json:"parts"`
	EndToEnd  values          `json:"end_to_end,omitempty"`
	PerLayer  values          `json:"per_layer,omitempty"`
	Dists     map[string]dist `json:"distributions,omitempty"`
	Repeats   []sample        `json:"repeats,omitempty"`
	Kernels   []kernelTimes   `json:"kernels,omitempty"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
}

func (r *runner) report() *report {
	rep := &report{Workload: r.w.name, Why: r.w.why, Seed: r.seed, Repeats: r.samples}
	for i, res := range r.results {
		rep.Parts = append(rep.Parts, partInfo{Label: r.parts[i].label, Engine: res.Engine, Workers: res.Workers,
			ShardPorts: res.ShardPorts, Slots: int64(res.Slots), Offered: res.Report.Offered})
	}
	return rep
}

// tracedSubset is the runner restricted to the parts the traced pass runs,
// so traced and untraced walls compare like with like. When that is every
// part (all workloads but sweep-small), its repeats are held to the same
// digest as the full runner's.
func (r *runner) tracedSubset() *runner {
	sub := &runner{w: r.w, seed: r.seed}
	for _, p := range r.parts {
		if p.traced {
			sub.parts = append(sub.parts, p)
		}
	}
	if len(sub.parts) == len(r.parts) {
		sub.want = r.want
	}
	return sub
}

// perLayerValues alternates untraced reference passes with traced passes
// until the budget is spent (at least once), then runs the kernels on the
// first pass's recorded streams. Timings are medians over the passes. twin,
// when set, is the other dense regime, run alongside for the ratio.
func (r *runner) perLayerValues(budget time.Duration, twin *runner, outDir string) (values, []kernelTimes) {
	ref := r.tracedSubset()
	var passes []values
	var first []*trace
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < budget {
		ref.repeat(true)
		if twin != nil {
			twin.repeat(true)
		}
		traces := r.tracedPass()
		if traces == nil {
			break
		}
		passes = append(passes, tracedValues(traces))
		if first == nil {
			first = traces
		} else {
			for _, tr := range traces {
				tr.stream, tr.shadowDep = nil, nil
			}
		}
	}
	r.attempted += ref.attempted
	r.failed += ref.failed
	v := values{}
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	if len(passes) == 0 || len(ref.samples) == 0 {
		return v, nil
	}
	for name := range passes[0] {
		v[name] = summarise(valuesOf(passes, name)).Median
	}
	untraced := summarise(column(ref.samples, func(s sample) float64 { return s.WallS })).Median
	v["trace.overhead_frac"] = v[passWall]/untraced - 1
	v["host.ns_per_load"] = summarise(column(ref.samples, func(s sample) float64 { return s.HostLoadNS })).Median

	var kts []kernelTimes
	for i, p := range ref.parts {
		r.attempted++
		kt, err := runKernels(p, first[i])
		if err != nil {
			r.fail("kernels: %s: %v", p.label, err)
			kt.Skipped = err.Error()
		}
		kts = append(kts, kt)
		first[i].stream, first[i].shadowDep = nil, nil
	}
	for name, x := range kernelValues(kts) {
		v[name] = x
	}
	v["fabric.residual_ns_per_cell"] = v[passFabricPerAdmitted] -
		(v["demux.ns_per_cell"] + v["timing.ns_per_cell"] + v["cell.store_ns_per_cell"] + v["plane.ns_per_cell"] + v["mux.ns_per_cell"])
	for name, x := range r.constructorValues() {
		v[name] = x
	}
	for name, x := range modelValues(r.parts, r.results) {
		v[name] = x
	}
	if twin != nil {
		v["fabric.par2_vs_serial"] = par2VsSerial(ref, twin)
		r.attempted += twin.attempted
		r.failed += twin.failed
	}
	delete(v, passWall)
	delete(v, passFabricPerAdmitted)
	if err := writeJSON(outDir, "trace-"+r.w.name+".json", traceFile{Workload: r.w.name, Seed: r.seed, Parts: first, Kernels: kts}); err != nil {
		r.attempted++
		r.fail("trace file: %v", err)
	}
	return v, kts
}

func valuesOf(passes []values, name string) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = p[name]
	}
	return out
}

// twinOf returns a warmed-up runner for the other dense regime, or nil.
func twinOf(w *workload, seed int64) (*runner, error) {
	other := map[string]string{"dense-bursty": "dense-par2", "dense-par2": "dense-bursty"}[w.name]
	if other == "" {
		return nil, nil
	}
	t, err := newRunner(findWorkload(other), seed)
	if err != nil {
		return nil, err
	}
	t.repeat(false)
	return t, nil
}

// result is the last line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measureOne is the driver's entry: one workload, one seed, measured for the
// given time, tracing off (end-to-end metrics) or on (per-layer metrics).
func measureOne(w *workload, seed int64, seconds float64, traced bool, outDir string) error {
	r, err := newRunner(w, seed)
	if err != nil {
		return err
	}
	budget := time.Duration(seconds * float64(time.Second))
	r.repeat(false) // discarded: the first run in a process pays for a cold heap
	defs, v, dists := endToEnd, values(nil), map[string]dist(nil)
	if traced {
		twin, err := twinOf(w, seed)
		if err != nil {
			return err
		}
		defs = perLayer
		v, _ = r.perLayerValues(budget, twin, outDir)
	} else {
		for start := time.Now(); len(r.samples) < 3 || time.Since(start) < budget; {
			r.repeat(true)
			if r.failed > 0 && len(r.samples) == 0 {
				break
			}
		}
		if len(r.samples) > 0 {
			v, dists = r.endToEndValues()
			for i, s := range r.samples {
				fmt.Printf("  repeat %d: wall %.6f s, nominal %.6f s, host probe %.1f ns/load\n", i+1, s.WallS, s.NominalS, s.HostLoadNS)
			}
			fmt.Printf("  host probe %.1f ns/load (nominal %g); uncalibrated %.6g cells per wall second\n",
				summarise(column(r.samples, func(s sample) float64 { return s.HostLoadNS })).Median, nominalLoadNS,
				summarise(column(r.samples, func(s sample) float64 { return float64(s.Offered) / s.WallS })).Median)
		}
	}
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
	}
	printValues(defs, v, dists)
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// set is one full measurement of the chosen workloads.
type set struct {
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"nproc"`
	Seed       int64     `json:"seed"`
	Rounds     int       `json:"rounds"`
	Claim      *string   `json:"claim"`
	Workloads  []*report `json:"workloads"`
}

// runSet is the measurement protocol: rounds run round-robin — one repeat
// per workload per round, so slow drift of the host lands on every workload
// alike — with the first round discarded; then each workload's set-up, RSS
// child, oracle pass, traced pass and kernels.
func runSet(ws []*workload, seed int64, rounds int, outDir, label string) (*set, error) {
	runners := make([]*runner, len(ws))
	for i, w := range ws {
		r, err := newRunner(w, seed)
		if err != nil {
			return nil, err
		}
		runners[i] = r
	}
	for round := 0; round < rounds; round++ {
		for _, r := range runners {
			r.repeat(round > 0)
		}
		fmt.Fprintf(os.Stderr, "round %d/%d done\n", round+1, rounds)
	}
	s := &set{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Seed: seed, Rounds: rounds}
	index := map[string]int{}
	for i, r := range runners {
		rep := r.report()
		if len(r.samples) > 0 {
			rep.EndToEnd, rep.Dists = r.endToEndValues()
			rep.PerLayer, rep.Kernels = r.perLayerValues(0, nil, outDir)
		}
		rep.Attempted, rep.Failed = r.attempted, r.failed
		s.Workloads = append(s.Workloads, rep)
		index[r.w.name] = i
	}
	// The round-robin repeats already interleave the two dense regimes, so a
	// set feeds the ratio from them instead of running a twin.
	a, hasPar2 := index["dense-par2"]
	b, hasSerial := index["dense-bursty"]
	if hasPar2 && hasSerial && s.Workloads[a].PerLayer != nil && s.Workloads[b].PerLayer != nil {
		x := par2VsSerial(runners[a], runners[b])
		s.Workloads[a].PerLayer["fabric.par2_vs_serial"], s.Workloads[b].PerLayer["fabric.par2_vs_serial"] = x, x
	}
	for _, rep := range s.Workloads {
		fmt.Printf("\n%s (seed %d): %s\n", rep.Workload, rep.Seed, rep.Why)
		for _, p := range rep.Parts {
			fmt.Printf("  part %-28s engine=%s workers=%d slots=%d offered=%d\n", p.Label, p.Engine, p.Workers, p.Slots, p.Offered)
		}
		printValues(endToEnd, rep.EndToEnd, rep.Dists)
		fmt.Printf("  %-32s %16.6g %-14s (%d of %d operations failed)\n", "failed_frac", ratio(float64(rep.Failed), float64(rep.Attempted)), "frac", rep.Failed, rep.Attempted)
		printValues(perLayer, rep.PerLayer, nil)
	}
	return s, writeJSON(outDir, "set-"+label+".json", s)
}

func (s *set) failed() int {
	n := 0
	for _, rep := range s.Workloads {
		n += rep.Failed
	}
	return n
}

// benchmarkSpec is the part of ../BENCHMARK.json the A/A comparison reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareSets prints, per workload and end-to-end metric, both sets' values,
// how much worse the second is, the bound and the spread, and returns how
// many pairs are outside their bound. A spread wider than the bound reads
// "unresolved": the ruler cannot tell that pair apart from noise.
func compareSets(a, b *set, spec benchmarkSpec) int {
	outside := 0
	fmt.Printf("\n%-16s %-22s %14s %14s %8s %7s %8s\n", "workload", "metric", "set 1", "set 2", "worse", "bound", "spread")
	for i, ra := range a.Workloads {
		rb := b.Workloads[i]
		for _, m := range spec.EndToEnd {
			x, y := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			worse := ratio(y-x, x)
			if m.Better == "higher" {
				worse = ratio(x-y, x)
			}
			spread := max(ra.Dists[m.Name].spread(), rb.Dists[m.Name].spread())
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "OUTSIDE"
				outside++
			case spread > m.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-16s %-22s %14.6g %14.6g %+7.1f%% %6.0f%% %7.1f%% %s\n", ra.Workload, m.Name, x, y, 100*worse, 100*m.Bound, 100*spread, verdict)
		}
	}
	return outside
}

func updateGolden(ws []*workload) error {
	for _, w := range ws {
		parts, err := w.parts(goldenSeed, 1)
		if err != nil {
			return err
		}
		results, err := w.run(parts)
		if err != nil {
			return err
		}
		if err := writeJSON("golden", w.name+".json", golden{Workload: w.name, Seed: goldenSeed, SHA256: digest(results)}); err != nil {
			return err
		}
		fmt.Printf("golden/%s.json updated\n", w.name)
	}
	return nil
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	rounds   int
	aa       bool
	outDir   string
	goldens  bool
	rssChild bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", goldenSeed, "seed of every generator (and of the random algorithms)")
	flag.Float64Var(&o.seconds, "seconds", 0, "measure one workload for this long and print the result JSON on the last line")
	flag.IntVar(&o.trace, "trace", 0, "with -seconds: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the traced pass")
	flag.IntVar(&o.rounds, "rounds", 10, "repeats per workload in a set; the first is discarded")
	flag.BoolVar(&o.aa, "aa", false, "run two sets back to back and compare them against the bounds in ../BENCHMARK.json")
	flag.StringVar(&o.outDir, "out", "out", "directory for set and trace files")
	flag.BoolVar(&o.goldens, "update-golden", false, "rewrite golden/<workload>.json from this build")
	flag.BoolVar(&o.rssChild, "rss-child", false, "internal: run the workload once and report this process's peak RSS")
	flag.Parse()
	runtime.GOMAXPROCS(threads)
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	var selection []*workload
	if o.workload == "all" {
		for i := range workloads {
			selection = append(selection, &workloads[i])
		}
	} else if w := findWorkload(o.workload); w != nil {
		selection = []*workload{w}
	} else {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (one of %v, or all)", o.workload, names)
	}
	switch {
	case o.rssChild:
		if len(selection) != 1 {
			return fmt.Errorf("-rss-child needs one workload")
		}
		return rssChildMain(selection[0], o.seed)
	case o.goldens:
		return updateGolden(selection)
	case o.seconds > 0:
		if len(selection) != 1 {
			return fmt.Errorf("-seconds measures one workload; name it with -workload")
		}
		return measureOne(selection[0], o.seed, o.seconds, o.trace == 1, o.outDir)
	case o.rounds < 2:
		return fmt.Errorf("-rounds must be at least 2: the first round is discarded")
	}
	first, err := runSet(selection, o.seed, o.rounds, o.outDir, "1")
	if err != nil {
		return err
	}
	failed := first.failed()
	if o.aa {
		b, err := os.ReadFile("../BENCHMARK.json")
		if err != nil {
			return err
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return fmt.Errorf("../BENCHMARK.json: %w", err)
		}
		second, err := runSet(selection, o.seed, o.rounds, o.outDir, "2")
		if err != nil {
			return err
		}
		failed += second.failed()
		if n := compareSets(first, second, spec); n > 0 {
			return fmt.Errorf("A/A: %d workload × metric pairs differ by more than their bound", n)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}
