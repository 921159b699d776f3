package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"ppsim"
)

// traceCmd generates, inspects and validates cell-arrival traces.
//
// Traces are stored as JSON: a list of {t, in, out} arrival records. The
// adversarial constructions can be materialized to files here and replayed
// through a switch or by external analysis.
//
//	ppsim trace -gen steering -n 32 -k 4 -rprime 2 -o /tmp/steer.json
//	ppsim trace -stats /tmp/steer.json -n 32
//	ppsim trace -run /tmp/steer.json -n 32 -k 4 -rprime 2 -alg rr
func traceCmd(fs *flag.FlagSet) func(io.Writer) int {
	s := switchFlags{n: 16, k: 4, rprime: 2, alg: "rr", d: 2, u: 2, h: 2, seed: 1, slots: 1000, load: 0.6}
	s.register(fs, "n", "k", "rprime", "alg", "seed", "slots", "load")
	fs.StringVar(&s.kind, "gen", "", "generate a trace of this traffic kind: "+trafficKinds)
	out := fs.String("o", "", "output file (default stdout)")
	stats := fs.String("stats", "", "read a trace file and print statistics")
	replay := fs.String("run", "", "replay a trace file through a switch and print the report")
	return func(stdout io.Writer) int {
		// -seed seeds the traffic only; the algorithm runs unseeded.
		cfg := s.config()
		cfg.Algorithm.Seed = 0
		switch {
		case *replay != "":
			tr, err := readTrace(*replay)
			if err != nil {
				return fail(fs, 1, err)
			}
			src, err := s.build(cfg, tr)
			if err != nil {
				return fail(fs, 2, err)
			}
			return exit(fs, runTrace(stdout, cfg, src))
		case *stats != "":
			return exit(fs, printStats(stdout, *stats, s.n))
		case s.kind != "" && s.slots < 1:
			return fail(fs, 2, fmt.Errorf("-slots %d must be >= 1", s.slots))
		case s.kind != "":
			src, err := s.build(cfg, nil)
			if err != nil {
				return fail(fs, 2, err)
			}
			tr, err := generate(src, ppsim.Time(s.slots))
			if err == nil {
				// Trace implements json.Marshaler with a canonical record encoding.
				err = writeOutput(*out, stdout, func(w io.Writer) error { return json.NewEncoder(w).Encode(tr) })
			}
			return exit(fs, err)
		}
		fs.Usage()
		return 2
	}
}

// generate materializes src: an adversary's trace as built, any other
// source over its first slots slots.
func generate(src ppsim.Source, slots ppsim.Time) (*ppsim.Trace, error) {
	if tr, ok := src.(*ppsim.Trace); ok {
		return tr, nil
	}
	tr := ppsim.NewTrace()
	var buf []ppsim.Arrival
	for t := ppsim.Time(0); t < slots; t++ {
		buf = src.Arrivals(t, buf[:0])
		for _, a := range buf {
			if err := tr.Add(t, a.In, a.Out); err != nil {
				return nil, err
			}
		}
	}
	return tr, nil
}

// readTrace decodes the JSON trace file at path.
func readTrace(path string) (*ppsim.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr := ppsim.NewTrace()
	if err := json.NewDecoder(f).Decode(tr); err != nil {
		return nil, err
	}
	return tr, nil
}

func printStats(w io.Writer, path string, n int) error {
	tr, err := readTrace(path)
	if err != nil {
		return err
	}
	b, err := ppsim.MeasureBurstiness(n, tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cells: %d\nspan:  %d slots\nleaky-bucket burstiness B: %d\n", tr.Count(), tr.End(), b)
	for _, tau := range []ppsim.Time{1, 10, 100} {
		if tau >= tr.End() {
			break
		}
		x, err := ppsim.WindowBurstiness(n, tr, tau)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "window excess (tau=%d): %d\n", tau, x)
	}
	return nil
}

// runTrace replays a stored trace through a configured switch.
func runTrace(w io.Writer, cfg ppsim.Config, src ppsim.Source) error {
	res, err := ppsim.Run(cfg, src, ppsim.Options{Validate: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replayed %d cells through N=%d K=%d r'=%d %s\n",
		res.Report.Cells, cfg.N, cfg.K, cfg.RPrime, res.AlgorithmName)
	fmt.Fprintln(w, res.Report)
	return nil
}
