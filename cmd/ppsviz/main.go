// Command ppsviz renders a textual timeline of the center stage: one row
// per plane, one column per sampled slot, glyph height = that plane's total
// backlog. Concentration — the mechanism behind every lower bound in the
// paper — is immediately visible as a single hot row.
//
//	ppsviz -n 32 -k 4 -alg rr -traffic steering
//	ppsviz -n 16 -k 8 -alg cpa -traffic bernoulli -load 0.9
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/obs"
	"ppsim/internal/traffic"
)

var glyphs = []rune(" .:-=+*#%@")

func main() {
	var (
		n      = flag.Int("n", 32, "external ports N")
		k      = flag.Int("k", 4, "center-stage planes K")
		rprime = flag.Int64("rprime", 2, "internal line occupancy r'")
		alg    = flag.String("alg", "rr", "algorithm: rr, perflow-rr, cpa, stale-cpa, random, least-loaded")
		u      = flag.Int64("u", 4, "staleness for stale-cpa")
		kind   = flag.String("traffic", "steering", "traffic: steering, concentration, bernoulli, flood")
		load   = flag.Float64("load", 0.6, "load (bernoulli)")
		slots  = flag.Int64("slots", 0, "horizon; 0 = auto")
		width  = flag.Int("width", 100, "timeline columns")
		seed   = flag.Int64("seed", 1, "seed")
	)
	flag.Parse()
	if err := run(*n, *k, *rprime, *alg, *u, *kind, *load, *slots, *width, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "ppsviz:", err)
		os.Exit(1)
	}
}

func run(n, k int, rprime int64, alg string, u int64, kind string, load float64, slots int64, width int, seed int64) error {
	cfg := fabric.Config{N: n, K: k, RPrime: rprime, CheckInvariants: true}
	factory, err := pickAlg(alg, u, seed)
	if err != nil {
		return err
	}
	src, err := pickTraffic(cfg, factory, kind, load, cell.Time(slots), seed)
	if err != nil {
		return err
	}

	end := src.End()
	if end == cell.None {
		return fmt.Errorf("traffic %q is unbounded; give -slots", kind)
	}
	// One point per slot until both switches drain, within a drain bound of
	// 16x the horizon plus 64 Ki slots.
	maxSlots := end*16 + 1<<16 + 1
	probe := obs.NewPlaneBacklogProbe(k, 1, int(maxSlots))
	if _, err := harness.Run(cfg, factory, src, harness.Options{MaxSlots: maxSlots, Probes: []obs.Probe{probe}}); err != nil {
		return err
	}
	// Downsample to the terminal width; each column shows the max backlog
	// in its slot bucket.
	pts := make([][]obs.Point, k)
	for p, s := range probe.Series() {
		pts[p] = s.Points()
	}
	total := len(pts[0])
	if width > total {
		width = total
	}
	cols := make([][]int, width)
	maxAll := 1
	for c := 0; c < width; c++ {
		lo, hi := c*total/width, (c+1)*total/width
		if hi == lo {
			hi = lo + 1
		}
		col := make([]int, k)
		for p := range col {
			for _, pt := range pts[p][lo:hi] {
				col[p] = max(col[p], int(pt.Value))
			}
			maxAll = max(maxAll, col[p])
		}
		cols[c] = col
	}

	fmt.Printf("plane backlog over %d slots (columns = %d-slot buckets, peak %d cells)\n",
		total, (total+width-1)/width, maxAll)
	for p := 0; p < k; p++ {
		var b strings.Builder
		for c := 0; c < width; c++ {
			g := cols[c][p] * (len(glyphs) - 1) / maxAll
			b.WriteRune(glyphs[g])
		}
		fmt.Printf("plane %2d |%s|\n", p, b.String())
	}
	fmt.Printf("scale: '%c' empty ... '%c' = %d cells\n", glyphs[0], glyphs[len(glyphs)-1], maxAll)
	return nil
}

func pickAlg(alg string, u, seed int64) (func(demux.Env) (demux.Algorithm, error), error) {
	switch alg {
	case "rr":
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerInput) }, nil
	case "perflow-rr":
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerFlow) }, nil
	case "cpa":
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.MinAvail) }, nil
	case "stale-cpa":
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPA(e, cell.Time(u)) }, nil
	case "random":
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewRandom(e, seed) }, nil
	case "least-loaded":
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewLocalLeastLoaded(e) }, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", alg)
	}
}

func pickTraffic(cfg fabric.Config, factory func(demux.Env) (demux.Algorithm, error), kind string, load float64, slots cell.Time, seed int64) (traffic.Source, error) {
	n := cfg.N
	if slots <= 0 {
		slots = 400
	}
	switch kind {
	case "steering":
		inputs := make([]cell.Port, n)
		for i := range inputs {
			inputs[i] = cell.Port(i)
		}
		return steeringOrErr(cfg, factory, inputs, seed)
	case "concentration":
		tr := traffic.NewTrace()
		for i := 0; i < n; i++ {
			tr.MustAdd(cell.Time(i), cell.Port(i), 0)
		}
		return tr, nil
	case "bernoulli":
		return traffic.NewBernoulli(n, load, slots, seed), nil
	case "flood":
		return &traffic.Flood{N: n, Out: 0, Until: slots / 4}, nil
	default:
		return nil, fmt.Errorf("unknown traffic %q", kind)
	}
}

func steeringOrErr(cfg fabric.Config, factory func(demux.Env) (demux.Algorithm, error), inputs []cell.Port, seed int64) (traffic.Source, error) {
	// Local import cycle avoidance: adversary lives beside us.
	return buildSteering(cfg, factory, inputs, seed)
}
