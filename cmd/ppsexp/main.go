// Command ppsexp regenerates the experiment tables of EXPERIMENTS.md: one
// table per theorem/figure of the paper (see DESIGN.md §4 for the index).
//
// Usage:
//
//	ppsexp [-quick] [-markdown] [-run E4,E5]
//
// Without -run it executes the full suite in ID order. With -debug-addr it
// also serves net/http/pprof and a /telemetry JSON endpoint (per-slot gauges,
// streaming delay-percentile histograms, finished-run totals) while the suite
// executes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ppsim"
	"ppsim/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced sweeps (seconds instead of minutes)")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavoured markdown instead of aligned text")
	csv := flag.Bool("csv", false, "emit CSV rows (experiment ID as the first column)")
	run := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and /telemetry on this address (e.g. localhost:6060)")
	admSpec := flag.String("admission", "", "override the admission experiment's (E28) token-bucket policy, e.g. rate:1/4,burst:4")
	deadline := flag.Int64("deadline", 0, "stamp the admission experiment's (E28) traffic with deadlines of arrival slot + N (0 = off)")
	flag.Parse()

	adm, err := ppsim.ParseAdmissionSpec(*admSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppsexp:", err)
		os.Exit(2)
	}
	if *deadline < 0 {
		fmt.Fprintln(os.Stderr, "ppsexp: -deadline must be >= 0")
		os.Exit(2)
	}

	if *debugAddr != "" {
		// Live telemetry is installed process-wide (the experiment layer does
		// not thread harness options), so every run the suite starts reports
		// its per-slot gauges and delay histograms to /telemetry.
		tel := ppsim.NewTelemetry()
		ppsim.SetGlobalTelemetry(tel)
		addr, err := startDebugServer(*debugAddr, tel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppsexp:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "ppsexp: pprof and /telemetry on http://%s\n", addr)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []experiments.Entry
	if *run == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.Get(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "ppsexp: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	opts := experiments.Opts{Quick: *quick, DeadlineRel: ppsim.Time(*deadline)}
	if !adm.Empty() {
		opts.Admission = adm
	}
	failures := 0
	for _, e := range selected {
		start := time.Now()
		tab, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppsexp: %s failed: %v\n", e.ID, err)
			failures++
			continue
		}
		switch {
		case *csv:
			fmt.Print(tab.CSV())
		case *markdown:
			fmt.Print(tab.Markdown())
		default:
			fmt.Print(tab.Text())
			fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	if failures > 0 {
		os.Exit(1)
	}
}
