package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"ppsim"
)

var glyphs = []rune(" .:-=+*#%@")

// vizCmd renders a textual timeline of the center stage: one row per plane,
// one column per sampled slot, glyph height = that plane's total backlog.
// Concentration — the mechanism behind every lower bound in the paper — is
// immediately visible as a single hot row. -slots 0 picks 400 slots.
//
//	ppsim viz -n 32 -k 4 -alg rr -traffic steering
//	ppsim viz -n 16 -k 8 -alg cpa -traffic bernoulli -load 0.9
func vizCmd(fs *flag.FlagSet) func(io.Writer) int {
	s := switchFlags{n: 32, k: 4, rprime: 2, alg: "rr", u: 4, seed: 1, kind: "steering", load: 0.6}
	s.register(fs, "n", "k", "rprime", "alg", "u", "seed", "traffic", "load", "slots")
	width := fs.Int("width", 100, "timeline columns")
	return func(stdout io.Writer) int {
		if s.slots < 0 {
			return fail(fs, 2, fmt.Errorf("-slots %d must be >= 0 (0 picks 400)", s.slots))
		}
		if *width < 1 {
			return fail(fs, 2, fmt.Errorf("-width %d must be >= 1", *width))
		}
		return exit(fs, timeline(stdout, s, *width))
	}
}

// timeline draws the plane-backlog timeline of one run.
func timeline(w io.Writer, s switchFlags, width int) error {
	if s.slots <= 0 {
		s.slots = 400
	}
	cfg := s.config()
	src, err := s.source(cfg)
	if err != nil {
		return err
	}
	// One point per slot until both switches drain, within a drain bound of
	// 16x the horizon plus 64 Ki slots.
	maxSlots := src.End()*16 + 1<<16 + 1
	res, err := ppsim.Run(cfg, src, ppsim.Options{MaxSlots: maxSlots, Probes: ppsim.StandardProbes(s.n, s.k, 1, int(maxSlots))})
	if err != nil {
		return err
	}
	// Downsample to the terminal width; each column shows the max backlog
	// in its slot bucket. The standard set leads with plane_backlog[0..k).
	k := s.k
	pts := make([][]ppsim.SeriesPoint, k)
	for p, ser := range res.Series[:k] {
		pts[p] = ser.Points()
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
