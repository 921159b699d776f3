// Command ppsim is the simulator's one command line. Each artifact the paper
// asks for is a subcommand:
//
//	ppsim sim     one simulation against the shadow switch: the RQD/RDJ report
//	ppsim exp     the experiment tables of EXPERIMENTS.md
//	ppsim diag    the Figure 1 render, or a run's per-slot probe series
//	ppsim trace   generate, inspect and replay cell-arrival traces
//	ppsim viz     a plane-backlog timeline of the center stage
//	ppsim bounds  every bound the paper proves, for one geometry
//
// "ppsim <subcommand> -h" lists a subcommand's flags. A command line the
// flags rule out exits 2, a failed run exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ppsim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// subcommands pairs each name with a function that registers the subcommand's
// flags on fs and returns the function that runs it once fs has parsed the
// command line. That function writes its results to stdout and its
// diagnostics to fs.Output(), and returns the exit code.
var subcommands = []struct {
	name string
	cmd  func(fs *flag.FlagSet) func(stdout io.Writer) int
}{
	{"sim", simCmd}, {"exp", expCmd}, {"diag", diagCmd},
	{"trace", traceCmd}, {"viz", vizCmd}, {"bounds", boundsCmd},
}

// run executes the subcommand args[0] with the flags args[1:] and returns
// its exit code: 2 for an unknown subcommand or flag, 0 after -h.
func run(args []string, stdout, stderr io.Writer) int {
	for _, sc := range subcommands {
		if len(args) > 0 && args[0] == sc.name {
			fs := flag.NewFlagSet("ppsim "+sc.name, flag.ContinueOnError)
			fs.SetOutput(stderr)
			exec := sc.cmd(fs)
			if err := fs.Parse(args[1:]); err != nil {
				if errors.Is(err, flag.ErrHelp) {
					return 0
				}
				return 2
			}
			return exec(stdout)
		}
	}
	if len(args) > 0 {
		fmt.Fprintf(stderr, "ppsim: unknown subcommand %q\n", args[0])
	}
	names := make([]string, len(subcommands))
	for i, sc := range subcommands {
		names[i] = sc.name
	}
	fmt.Fprintf(stderr, "usage: ppsim <subcommand> [flags]\nsubcommands: %s\n", strings.Join(names, ", "))
	return 2
}

// fail reports err under the subcommand's name and returns code.
func fail(fs *flag.FlagSet, code int, err error) int {
	fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
	return code
}

// exit returns a run's exit code: 0, or 1 after reporting a non-nil err.
func exit(fs *flag.FlagSet, err error) int {
	if err != nil {
		return fail(fs, 1, err)
	}
	return 0
}

// usageError reports err and the subcommand's flags, and returns 2.
func usageError(fs *flag.FlagSet, err error) int {
	fail(fs, 2, err)
	fs.Usage()
	return 2
}

// validateStride rejects a non-positive sampling stride at parse time.
// obs.NewSeries silently coerces stride < 1 to 1, so a typo like -stride 0
// would run a full every-slot capture instead of failing loudly.
func validateStride(stride int64) error {
	if stride < 1 {
		return fmt.Errorf("-stride must be >= 1, got %d", stride)
	}
	return nil
}

// writeOutput hands write the file at path, or stdout when path is empty,
// and reports the first error of creating, writing and closing the file.
func writeOutput(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

const trafficKinds = "bernoulli, hotspot, onoff, trickle, permutation, flood, steering, concentration, herding"

// switchFlags are the geometry, algorithm and traffic flags the subcommands
// share. A subcommand sets its defaults in the struct and registers the
// flags it takes; a field it does not register keeps its default.
type switchFlags struct {
	n, k, d                int
	rprime, u, seed, slots int64
	h, load                float64
	alg, kind              string
}

// register adds the named flags to fs, each defaulting to its field.
func (s *switchFlags) register(fs *flag.FlagSet, names ...string) {
	flags := map[string]func(){
		"n":       func() { fs.IntVar(&s.n, "n", s.n, "external ports N") },
		"k":       func() { fs.IntVar(&s.k, "k", s.k, "center-stage planes K") },
		"rprime":  func() { fs.Int64Var(&s.rprime, "rprime", s.rprime, "internal line occupancy r' = R/r") },
		"alg":     func() { fs.StringVar(&s.alg, "alg", s.alg, "demultiplexing algorithm (see -algs)") },
		"d":       func() { fs.IntVar(&s.d, "d", s.d, "partition size (alg=partition)") },
		"u":       func() { fs.Int64Var(&s.u, "u", s.u, "staleness / buffer lag (alg=stale-cpa, buffered-cpa)") },
		"h":       func() { fs.Float64Var(&s.h, "h", s.h, "FTD block parameter (alg=ftd)") },
		"seed":    func() { fs.Int64Var(&s.seed, "seed", s.seed, "random seed (traffic and alg=random)") },
		"traffic": func() { fs.StringVar(&s.kind, "traffic", s.kind, "traffic: "+trafficKinds) },
		"load":    func() { fs.Float64Var(&s.load, "load", s.load, "per-input load in [0,1] (bernoulli, hotspot, onoff)") },
		"slots":   func() { fs.Int64Var(&s.slots, "slots", s.slots, "traffic horizon in slots") },
	}
	for _, name := range names {
		flags[name]()
	}
}

// config returns the switch the flags describe.
func (s *switchFlags) config() ppsim.Config {
	return ppsim.Config{
		N: s.n, K: s.k, RPrime: s.rprime,
		Algorithm: ppsim.Algorithm{Name: s.alg, D: s.d, U: ppsim.Time(s.u), H: s.h, Seed: s.seed},
	}
}

// build validates cfg, then builds the run's traffic: src when it is
// non-nil (trace -run replays a file), the flags' traffic kind otherwise. It
// is the one path from the flags to a run, so its error is a command-line
// error (exit 2).
func (s *switchFlags) build(cfg ppsim.Config, src ppsim.Source) (ppsim.Source, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src != nil {
		return src, nil
	}
	return s.source(cfg)
}

// source builds the traffic of kind s.kind for cfg over s.slots slots.
func (s *switchFlags) source(cfg ppsim.Config) (ppsim.Source, error) {
	n, slots := cfg.N, ppsim.Time(s.slots)
	switch s.kind {
	case "bernoulli", "hotspot", "onoff", "trickle":
		// Written so NaN fails too: every comparison with it is false.
		if !(s.load >= 0 && s.load <= 1) {
			return nil, fmt.Errorf("-load %g outside [0,1]", s.load)
		}
	}
	switch s.kind {
	case "bernoulli":
		return ppsim.NewBernoulli(n, s.load, slots, s.seed), nil
	case "hotspot":
		return ppsim.NewHotspot(n, s.load, 0.5, 0, slots, s.seed)
	case "onoff", "trickle":
		// trickle is two concentrated on/off flows at per-flow load -load;
		// the other N-2 inputs stay silent. Unlike onoff (where every input
		// carries a flow, so some input is almost always on at large N), the
		// fabric is globally quiescent most slots — the long-horizon
		// workload the event core elides.
		if s.kind == "trickle" {
			n = 2
		}
		meanOn := 8.0
		return ppsim.NewOnOff(n, meanOn, max(meanOn*(1-s.load)/s.load, 1), slots, s.seed)
	case "permutation":
		perm := make([]ppsim.Port, n)
		for i := range perm {
			perm[i] = ppsim.Port((i + 1) % n)
		}
		return ppsim.NewPermutation(perm, slots)
	case "flood":
		return ppsim.NewFlood(n, 0, slots/4), nil
	case "steering":
		// Plane 1 takes every cell, or plane 0 of a one-plane switch
		// (SteeringTrace rejects K < 1).
		return ppsim.SteeringTrace(cfg, ppsim.AllInputs(n), 0, ppsim.PlaneID(1%max(cfg.K, 1)), 16, s.seed)
	case "concentration":
		return ppsim.ConcentrationTrace(n, n, 0)
	case "herding":
		return ppsim.HerdingTrace(n, 0, 4, n/4, 4)
	}
	return nil, fmt.Errorf("unknown traffic kind %q", s.kind)
}
