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
	"io"
	"os"
	"strings"

	"ppsim"
)

var glyphs = []rune(" .:-=+*#%@")

func main() {
	var (
		n      = flag.Int("n", 32, "external ports N")
		k      = flag.Int("k", 4, "center-stage planes K")
		rprime = flag.Int64("rprime", 2, "internal line occupancy r'")
		alg    = flag.String("alg", "rr", "algorithm: "+strings.Join(ppsim.AlgorithmNames(), ", "))
		u      = flag.Int64("u", 4, "staleness for stale-cpa")
		kind   = flag.String("traffic", "steering", "traffic: steering, concentration, bernoulli, flood")
		load   = flag.Float64("load", 0.6, "load (bernoulli)")
		slots  = flag.Int64("slots", 0, "horizon; 0 = auto")
		width  = flag.Int("width", 100, "timeline columns")
		seed   = flag.Int64("seed", 1, "seed")
	)
	flag.Parse()
	if err := run(os.Stdout, *n, *k, *rprime, *alg, *u, *kind, *load, *slots, *width, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "ppsviz:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, n, k int, rprime int64, alg string, u int64, kind string, load float64, slots int64, width int, seed int64) error {
	cfg := ppsim.Config{N: n, K: k, RPrime: rprime, Algorithm: ppsim.Algorithm{Name: alg, U: ppsim.Time(u), Seed: seed}}
	src, err := pickTraffic(cfg, kind, load, ppsim.Time(slots), seed)
	if err != nil {
		return err
	}

	end := src.End()
	if end == ppsim.NoTime {
		return fmt.Errorf("traffic %q is unbounded; give -slots", kind)
	}
	// One point per slot until both switches drain, within a drain bound of
	// 16x the horizon plus 64 Ki slots.
	maxSlots := end*16 + 1<<16 + 1
	res, err := ppsim.Run(cfg, src, ppsim.Options{MaxSlots: maxSlots, Probes: ppsim.StandardProbes(n, k, 1, int(maxSlots))})
	if err != nil {
		return err
	}
	// Downsample to the terminal width; each column shows the max backlog
	// in its slot bucket. The standard set leads with plane_backlog[0..k).
	pts := make([][]ppsim.SeriesPoint, k)
	for p, s := range res.Series[:k] {
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

	fmt.Fprintf(w, "plane backlog over %d slots (columns = %d-slot buckets, peak %d cells)\n",
		total, (total+width-1)/width, maxAll)
	for p := 0; p < k; p++ {
		var b strings.Builder
		for c := 0; c < width; c++ {
			g := cols[c][p] * (len(glyphs) - 1) / maxAll
			b.WriteRune(glyphs[g])
		}
		fmt.Fprintf(w, "plane %2d |%s|\n", p, b.String())
	}
	fmt.Fprintf(w, "scale: '%c' empty ... '%c' = %d cells\n", glyphs[0], glyphs[len(glyphs)-1], maxAll)
	return nil
}

func pickTraffic(cfg ppsim.Config, kind string, load float64, slots ppsim.Time, seed int64) (ppsim.Source, error) {
	n := cfg.N
	if slots <= 0 {
		slots = 400
	}
	switch kind {
	case "steering":
		return ppsim.SteeringTrace(cfg, ppsim.AllInputs(n), 0, ppsim.PlaneID(1%cfg.K), 16, seed)
	case "concentration":
		return ppsim.ConcentrationTrace(n, n, 0)
	case "bernoulli":
		return ppsim.NewBernoulli(n, load, slots, seed), nil
	case "flood":
		return ppsim.NewFlood(n, 0, slots/4), nil
	default:
		return nil, fmt.Errorf("unknown traffic %q", kind)
	}
}
