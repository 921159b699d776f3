package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"strings"
	"time"

	"ppsim"
	"ppsim/internal/experiments"
)

// expCmd regenerates the experiment tables of EXPERIMENTS.md: one table per
// theorem/figure of the paper (see DESIGN.md §4 for the index).
//
//	ppsim exp [-quick] [-markdown] [-run E4,E5]
//
// Without -run it executes the full suite in ID order. With -debug-addr it
// also serves net/http/pprof and a /telemetry JSON endpoint (per-slot gauges,
// streaming delay-percentile histograms, finished-run totals) while the suite
// executes.
func expCmd(fs *flag.FlagSet) func(io.Writer) int {
	quick := fs.Bool("quick", false, "run reduced sweeps (seconds instead of minutes)")
	markdown := fs.Bool("markdown", false, "emit GitHub-flavoured markdown instead of aligned text")
	csv := fs.Bool("csv", false, "emit CSV rows (experiment ID as the first column)")
	runIDs := fs.String("run", "", "comma-separated experiment IDs (default: all)")
	list := fs.Bool("list", false, "list experiments and exit")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof and /telemetry on this address (e.g. localhost:6060)")
	admSpec := fs.String("admission", "", "override the admission experiment's (E28) token-bucket policy, e.g. rate:1/4,burst:4")
	deadline := fs.Int64("deadline", 0, "stamp the admission experiment's (E28) traffic with deadlines of arrival slot + N (0 = off)")
	return func(stdout io.Writer) int {
		adm, err := ppsim.ParseAdmissionSpec(*admSpec)
		if err != nil {
			return fail(fs, 2, err)
		}
		if *deadline < 0 {
			return fail(fs, 2, errors.New("-deadline must be >= 0"))
		}

		if *debugAddr != "" {
			// Live telemetry is installed process-wide (the experiment layer
			// does not thread harness options), so every run the suite starts
			// reports its per-slot gauges and delay histograms to /telemetry.
			tel := ppsim.NewTelemetry()
			ppsim.SetGlobalTelemetry(tel)
			addr, err := startDebugServer(*debugAddr, tel)
			if err != nil {
				return fail(fs, 2, err)
			}
			fmt.Fprintf(fs.Output(), "%s: pprof and /telemetry on http://%s\n", fs.Name(), addr)
		}

		if *list {
			for _, e := range experiments.All() {
				fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
			}
			return 0
		}

		selected := experiments.All()
		if *runIDs != "" {
			selected = nil
			for _, id := range strings.Split(*runIDs, ",") {
				id = strings.TrimSpace(id)
				e, ok := experiments.Get(id)
				if !ok {
					return fail(fs, 2, fmt.Errorf("unknown experiment %q (use -list)", id))
				}
				selected = append(selected, e)
			}
		}

		opts := experiments.Opts{Quick: *quick, DeadlineRel: ppsim.Time(*deadline)}
		if !adm.Empty() {
			opts.Admission = adm
		}
		code := 0
		for _, e := range selected {
			start := time.Now()
			tab, err := e.Run(opts)
			if err != nil {
				code = fail(fs, 1, fmt.Errorf("%s failed: %v", e.ID, err))
				continue
			}
			switch {
			case *csv:
				fmt.Fprint(stdout, tab.CSV())
			case *markdown:
				fmt.Fprint(stdout, tab.Markdown())
			default:
				fmt.Fprint(stdout, tab.Text())
				fmt.Fprintf(stdout, "(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
			}
		}
		return code
	}
}

// startDebugServer serves net/http/pprof plus a /telemetry JSON endpoint
// backed by the telemetry aggregator on addr (e.g. "localhost:6060"). It
// returns the bound address so callers (and tests) can use ":0". tel may be
// nil, in which case /telemetry serves the zero snapshot.
func startDebugServer(addr string, tel *ppsim.Telemetry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	// A dedicated mux (delegating /debug/pprof/* to the default mux, where
	// the pprof import registered itself) keeps repeated server starts —
	// tests bind several on port 0 — from panicking on duplicate patterns.
	mux := http.NewServeMux()
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := tel.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintln(os.Stderr, "ppsim exp: debug server:", err)
		}
	}()
	return ln.Addr().String(), nil
}
