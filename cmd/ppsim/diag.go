package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"

	"ppsim"
)

// diagCmd renders the PPS architecture (the paper's Figure 1) as ASCII art
// for a given geometry, and reports the derived quantities the model fixes:
// speedup, Clos descriptor, line counts.
//
//	ppsim diag -n 5 -k 2 -rprime 2
//
// With -series it instead runs an instrumented simulation and streams
// per-slot probe series (plane backlogs, buffer depths, front RQD, ...) as
// long-format CSV or JSON, e.g. the Theorem 6 steering adversary:
//
//	ppsim diag -series -n 16 -k 4 -rprime 2 -alg rr -traffic steering
func diagCmd(fs *flag.FlagSet) func(io.Writer) int {
	sc := seriesConfig{switchFlags: switchFlags{n: 5, k: 2, rprime: 2, alg: "rr", kind: "steering", load: 0.6, seed: 1, slots: 2000}}
	sc.register(fs, "n", "k", "rprime", "alg", "traffic", "load", "seed", "slots")
	series := fs.Bool("series", false, "run a simulation and stream per-slot probe series instead of rendering")
	pctl := fs.Bool("percentiles", false, "run a simulation and print the per-component delay percentile table (with -series it goes to stderr, after the series)")
	stride := fs.Int64("stride", 1, "sample every stride-th slot (series mode)")
	scap := fs.Int64("cap", 0, "points retained per series, 0 = default ring capacity (series mode)")
	fs.StringVar(&sc.Format, "format", "csv", "series output format: csv or json")
	out := fs.String("out", "", "series output file (default stdout)")
	return func(stdout io.Writer) int {
		if sc.n <= 0 || sc.k <= 0 || sc.rprime < 1 {
			return fail(fs, 2, errors.New("need n > 0, k > 0, rprime >= 1"))
		}
		if err := validateStride(*stride); err != nil {
			return usageError(fs, err)
		}
		// obs.NewSeries would silently coerce a capacity <= 0 to the default.
		if *scap < 0 {
			return usageError(fs, fmt.Errorf("-cap must be >= 0 (0 = default ring capacity), got %d", *scap))
		}
		if !*series && !*pctl {
			fmt.Fprint(stdout, Render(sc.n, sc.k, sc.rprime))
			return 0
		}
		if sc.slots < 1 {
			return fail(fs, 2, fmt.Errorf("-slots %d must be >= 1", sc.slots))
		}
		src, err := sc.build(sc.config(), nil)
		if err != nil {
			return fail(fs, 2, err)
		}
		sc.Stride, sc.Cap = ppsim.Time(*stride), int(*scap)
		if !*series {
			sc.Percentiles = stdout
			return exit(fs, runSeries(nil, sc, src))
		}
		// Combined with -series the table moves to stderr so piped CSV/JSON
		// stays machine-readable.
		if *pctl {
			sc.Percentiles = fs.Output()
		}
		return exit(fs, writeOutput(*out, stdout, func(w io.Writer) error { return runSeries(w, sc, src) }))
	}
}

// Render draws the three-stage PPS.
func Render(n, k int, rprime int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parallel Packet Switch: N=%d, K=%d, r'=%d (S = K/r' = %.2f)\n", n, k, rprime, float64(k)/float64(rprime))
	fmt.Fprintf(&b, "three-stage Clos network Clos(m=%d, n=1, r=%d); each plane an %dx%d switch at rate R/%d\n\n", k, n, n, n, rprime)

	for row := 0; row < max(n, k); row++ {
		in := "            "
		if row < n {
			in = fmt.Sprintf("in %2d >[D%-2d]", row, row)
		}
		mid := strings.Repeat(" ", 13)
		if row < k {
			mid = fmt.Sprintf("=[ plane %-2d]=", row)
		}
		out := ""
		if row < n {
			out = fmt.Sprintf("[M%-2d]> out %2d", row, row)
		}
		link := "--"
		if row >= n {
			link = "  "
		}
		fmt.Fprintf(&b, "%s %s %s %s %s\n", in, link, mid, link, out)
	}
	fmt.Fprintf(&b, "\nD = demultiplexor (one per input, rate-R external line)\n")
	fmt.Fprintf(&b, "M = multiplexor with resequencing buffer (one per output)\n")
	fmt.Fprintf(&b, "every input connects to every plane and every plane to every output:\n")
	fmt.Fprintf(&b, "%d + %d internal lines, each carrying one cell per %d slots\n", n*k, k*n, rprime)
	return b.String()
}

// seriesConfig parameterizes one per-slot series capture.
type seriesConfig struct {
	switchFlags
	Stride ppsim.Time
	Cap    int    // points retained per series; 0 = default ring capacity
	Format string // csv or json
	// Percentiles, when non-nil, receives the per-component delay
	// percentile table after the run (rqd, demux, plane, reseq, total,
	// inter-departure gap) — kept separate from w so piped CSV/JSON stays
	// machine-readable.
	Percentiles io.Writer
}

// runSeries executes one instrumented run of sc's switch over src and
// streams every standard probe series to w (long-format CSV or JSON). This
// is the diagnostic companion to the static Figure-1 rendering: instead of
// the architecture it shows the per-slot trajectory — plane backlogs, buffer
// depths, front RQD — of an actual execution through that architecture.
func runSeries(w io.Writer, sc seriesConfig, src ppsim.Source) error {
	write := ppsim.WriteSeriesCSV
	switch sc.Format {
	case "", "csv":
	case "json":
		write = ppsim.WriteSeriesJSON
	default:
		return fmt.Errorf("unknown series format %q (want csv or json)", sc.Format)
	}
	var opts ppsim.Options
	if w != nil {
		opts.Probes = ppsim.StandardProbes(sc.n, sc.k, sc.Stride, sc.Cap)
	}
	res, err := ppsim.Run(sc.config(), src, opts)
	if err != nil {
		return err
	}
	if w != nil {
		if err := write(w, res.Series); err != nil {
			return err
		}
	}
	if sc.Percentiles != nil {
		_, err = fmt.Fprintf(sc.Percentiles, "delay percentiles (slots):\n%s", res.Report.PercentileTable())
	}
	return err
}
