package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"ppsim"
)

// run executes the workload once, untraced, through the public API and
// returns one Result per part, in part order.
func (w *workload) run(parts []part) ([]ppsim.Result, error) {
	results := make([]ppsim.Result, len(parts))
	if w.sweep {
		points := make([]ppsim.SweepPoint, len(parts))
		for i, p := range parts {
			p := p
			points[i] = ppsim.SweepPoint{Label: p.label, Config: p.cfg, Options: p.opts,
				NewSource: func() ppsim.Source {
					src, err := p.newSrc()
					if err != nil {
						panic(err) // RunSweep reports a panicking point as that point's error
					}
					return src
				}}
		}
		for i, sr := range ppsim.RunSweep(points, 1) {
			if sr.Err != nil {
				return nil, fmt.Errorf("%s: %w", sr.Label, sr.Err)
			}
			results[i] = sr.Result
		}
		return results, nil
	}
	for i, p := range parts {
		src, err := p.newSrc()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.label, err)
		}
		if results[i], err = ppsim.Run(p.cfg, src, p.opts); err != nil {
			return nil, fmt.Errorf("%s: %w", p.label, err)
		}
	}
	return results, nil
}

// simulated is what a simulator-speed change must leave identical; the
// engine that produced it (Engine, Workers, ShardPorts) is deliberately not
// part of it.
type simulated struct {
	Report         ppsim.Report
	Slots          ppsim.Time
	Drops          uint64
	PeakPlaneQueue int
}

func simulatedOf(res ppsim.Result) simulated {
	return simulated{Report: res.Report, Slots: res.Slots, Drops: res.Drops, PeakPlaneQueue: res.PeakPlaneQueue}
}

// digest is the SHA-256 of the canonical JSON of every part's simulated
// statistics.
func digest(results []ppsim.Result) string {
	sims := make([]simulated, len(results))
	for i, res := range results {
		sims[i] = simulatedOf(res)
	}
	return digestOf(sims...)
}

func digestOf(sims ...simulated) string {
	b, err := json.Marshal(sims)
	if err != nil {
		panic(err) // plain structs of numbers and slices always marshal
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func offered(results []ppsim.Result) uint64 {
	var n uint64
	for _, res := range results {
		n += res.Report.Offered
	}
	return n
}

// sample is one timed untraced repeat. NominalS is WallS calibrated by the
// host probe's readings around the repeat (host.go).
type sample struct {
	WallS      float64 `json:"wall_s"`
	NominalS   float64 `json:"nominal_s"`
	HostLoadNS float64 `json:"host_ns_per_load"`
	Offered    uint64  `json:"offered_cells"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
}

// runner measures one workload at one seed and keeps the failure ledger.
type runner struct {
	w     *workload
	seed  int64
	parts []part
	// want is the digest every run of this seed must reproduce: the
	// committed golden at the default seed, the first run's digest otherwise.
	want      string
	attempted int
	failed    int
	samples   []sample
	results   []ppsim.Result // of the latest repeat
}

func newRunner(w *workload, seed int64) (*runner, error) {
	parts, err := w.parts(seed, 1)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, seed: seed, parts: parts}
	if seed == goldenSeed {
		if r.want, err = readGolden(w.name); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "FAIL %s seed %d: %s\n", r.w.name, r.seed, fmt.Sprintf(format, args...))
}

// verify checks one run of the full-horizon parts: every part resolved to
// its declared regime and met its theorem bound, and the simulated
// statistics reproduce the expected digest. One operation per part.
func (r *runner) verify(what string, results []ppsim.Result, err error) bool {
	r.attempted += len(r.parts)
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	before := r.failed
	for i, p := range r.parts {
		res := results[i]
		switch {
		case res.Engine != p.engine || res.Workers != p.workers:
			r.fail("%s: %s resolved to engine %s workers %d, declared %s/%d (%s)",
				what, p.label, res.Engine, res.Workers, p.engine, p.workers, res.EngineReason)
		case p.bound != noBound && int64(res.Report.MaxRQD) > p.bound:
			r.fail("%s: %s max RQD %d exceeds the theorem bound %d", what, p.label, res.Report.MaxRQD, p.bound)
		}
	}
	d := digest(results)
	if r.want == "" {
		r.want = d
	}
	if d != r.want && r.failed == before {
		r.fail("%s: digest %s, want %s", what, d, r.want)
	}
	return r.failed == before
}

// repeat runs the workload once with tracing off and times it. The heap is
// collected first so every repeat starts from the same state; the collector
// still runs inside the timed region whenever the run's own garbage asks.
func (r *runner) repeat(keep bool) {
	var m0, m1 runtime.MemStats
	h0 := hostNSPerLoad()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	results, err := r.w.run(r.parts)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	h1 := hostNSPerLoad()
	if !r.verify("repeat", results, err) {
		return
	}
	r.results = results
	if keep {
		r.samples = append(r.samples, sample{
			WallS:      wall.Seconds(),
			NominalS:   nominalSeconds(wall.Seconds(), h0, h1),
			HostLoadNS: (h0 + h1) / 2,
			Offered:    offered(results),
			AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
			Mallocs:    m1.Mallocs - m0.Mallocs,
		})
	}
}

// rates are the kept repeats' offered cells per nominal host second.
func (r *runner) rates() []float64 {
	return column(r.samples, func(s sample) float64 { return float64(s.Offered) / s.NominalS })
}

// par2VsSerial is fabric.par2_vs_serial: the stage-parallel regime's median
// cells_per_sec over the serial regime's, given the two dense runners in
// either order; 0 while either has no kept repeat.
func par2VsSerial(a, b *runner) float64 {
	if a.parts[0].workers == 0 {
		a, b = b, a
	}
	return ratio(summarise(a.rates()).Median, summarise(b.rates()).Median)
}

// setupBatches times config → first slot → teardown: every part's source
// constructor plus a ppsim.Run over an empty trace, back to back. Each batch
// runs for its share of the budget (at least 8 set-ups) and yields its lower
// quartile, in nominal seconds by the host probe's readings around the batch:
// a batch's median drifts with the collector, its fast quartile does not.
func (r *runner) setupBatches(batches int, budget time.Duration) []float64 {
	out := make([]float64, 0, batches)
	before := hostNSPerLoad()
	for b := 0; b < batches; b++ {
		var samples []float64
		for start := time.Now(); len(samples) < 8 || time.Since(start) < budget/time.Duration(batches); {
			t0 := time.Now()
			for _, p := range r.parts {
				_, err := p.newSrc()
				if err == nil {
					_, err = ppsim.Run(p.cfg, ppsim.NewTrace(), p.opts)
				}
				if err != nil {
					r.attempted++
					r.fail("setup: %s: %v", p.label, err)
					return out
				}
			}
			samples = append(samples, time.Since(t0).Seconds())
		}
		after := hostNSPerLoad()
		out = append(out, nominalSeconds(summarise(samples).Q1, before, after))
		before = after
	}
	return out
}

// oracle runs the workload at 1/oracleDiv horizon twice — under its declared
// regime and under the serial, naive stepped engine — and requires deeply
// equal results once the engine fields are normalised.
func (r *runner) oracle() {
	parts, err := r.w.parts(r.seed, r.w.oracleDiv)
	r.attempted++
	if err != nil {
		r.fail("oracle: %v", err)
		return
	}
	got, err := r.w.run(parts)
	if err != nil {
		r.fail("oracle: declared regime: %v", err)
		return
	}
	for i := range parts {
		parts[i].opts.Engine, parts[i].opts.Workers = ppsim.EngineStepped, 0
	}
	ref, err := r.w.run(parts)
	if err != nil {
		r.fail("oracle: stepped: %v", err)
		return
	}
	for i := range parts {
		if g, w := normalised(got[i]), normalised(ref[i]); !reflect.DeepEqual(g, w) {
			r.fail("oracle: %s differs from the stepped engine:\n got %+v\nwant %+v", parts[i].label, g.Report, w.Report)
			return
		}
	}
}

func normalised(res ppsim.Result) ppsim.Result {
	res.Engine, res.EngineReason, res.Workers, res.ShardPorts = "", "", 0, nil
	return res
}

// childReport is what the -rss-child process prints.
type childReport struct {
	VmHWMKiB int64  `json:"vm_hwm_kib"`
	Digest   string `json:"digest"`
}

// rssChildren is how many fresh processes peak_rss_mb is the median of: at a
// fixed seed the collector's timing alone moves one child's peak by ± 10 %.
const rssChildren = 3

// rssPeaks builds and runs the workload exactly once in each of rssChildren
// fresh processes, one after the other, and returns their peak resident sets
// in MiB. One operation per child.
func (r *runner) rssPeaks() []float64 {
	var peaks []float64
	for i := 0; i < rssChildren; i++ {
		r.attempted++
		if mib, err := r.rssChild(); err != nil {
			r.fail("rss child: %v", err)
		} else {
			peaks = append(peaks, mib)
		}
	}
	return peaks
}

func (r *runner) rssChild() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-rss-child", "-workload", r.w.name, "-seed", strconv.FormatInt(r.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	var rep childReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return 0, fmt.Errorf("%w in %q", err, out)
	}
	if r.want != "" && rep.Digest != r.want {
		return 0, fmt.Errorf("digest %s, want %s", rep.Digest, r.want)
	}
	return float64(rep.VmHWMKiB) / 1024, nil
}

// rssChildMain is the child side of rssChild.
func rssChildMain(w *workload, seed int64) error {
	parts, err := w.parts(seed, 1)
	if err != nil {
		return err
	}
	results, err := w.run(parts)
	if err != nil {
		return err
	}
	hwm, err := vmHWM()
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(childReport{VmHWMKiB: hwm, Digest: digest(results)})
}

// vmHWM reads this process's peak resident set size in KiB.
func vmHWM() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// dist summarises repeated measurements of one quantity.
type dist struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// summarise returns the quartiles as Python's statistics.quantiles(v, n=4)
// computes them (the exclusive method), so spreads printed here match the
// ones the acceptance procedure derives.
func summarise(v []float64) dist {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return dist{}
	case 1:
		return dist{N: 1, Q1: s[0], Median: s[0], Q3: s[0]}
	}
	at := func(q float64) float64 {
		pos := q * float64(n+1)
		j := int(pos)
		if j < 1 {
			j, pos = 1, 1
		}
		if j > n-1 {
			j, pos = n-1, float64(n)
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return dist{N: n, Q1: at(0.25), Median: at(0.5), Q3: at(0.75)}
}

// spread is the quartile distance as a share of the median.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / d.Median
}

func column(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}
