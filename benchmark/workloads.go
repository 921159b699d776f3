package main

import (
	"fmt"

	"ppsim"
	"ppsim/internal/bounds"
)

// part is one ppsim.Run call of a workload: a switch, a fresh seeded source
// and the run options, plus what the run must resolve to and satisfy.
type part struct {
	label  string
	cfg    ppsim.Config
	newSrc func() (ppsim.Source, error)
	opts   ppsim.Options
	// engine and workers are the declared regime: a run whose Result.Engine
	// or Result.Workers differ is a failed run, not a warning.
	engine  string
	workers int
	// bound is the theorem bound on Report.MaxRQD in slots (internal/bounds);
	// noBound when the paper proves none for this configuration.
	bound int64
	// traced marks the parts the traced pass runs (sweep-small traces one
	// representative point per algorithm, every other workload all parts).
	traced bool
}

const noBound = int64(-1)

// workload is one named set of inputs. parts builds the runs from the seed;
// div divides every horizon (1 = the measured horizon, oracleDiv = the
// stepped-oracle pass, larger = the unit tests' tiny variants).
type workload struct {
	name, why string
	// sweep runs the parts through ppsim.RunSweep(points, 1) instead of one
	// ppsim.Run per part.
	sweep bool
	// oracleDiv is the horizon divisor at which the naive stepped engine
	// (O(N) per slot, no elision) is affordable for this geometry.
	oracleDiv int64
	parts     func(seed, div int64) ([]part, error)
}

// maxSlots is the explicit drain cap: the silent 1<<22 default would
// truncate sparse-long.
func maxSlots(until ppsim.Time) ppsim.Time { return until + 1<<20 }

func engineFor(workers int) string {
	if workers != 0 {
		return "stepped" // the event core is serial
	}
	return "event"
}

// dense is the saturated N=1024 on/off case, serial or stage-parallel.
func dense(workers int) func(seed, div int64) ([]part, error) {
	return func(seed, div int64) ([]part, error) {
		until := ppsim.Time(1250 / div)
		return []part{{
			label:  "rr/n1024",
			cfg:    ppsim.Config{N: 1024, K: 8, RPrime: 2, DisableChecks: true, Algorithm: ppsim.Algorithm{Name: "rr"}},
			newSrc: func() (ppsim.Source, error) { return ppsim.NewOnOff(1024, 8, 5.33, until, seed) },
			opts:   ppsim.Options{MaxSlots: maxSlots(until), Workers: workers},
			engine: engineFor(workers), workers: workers, bound: noBound, traced: true,
		}}, nil
	}
}

func sparseLong(seed, div int64) ([]part, error) {
	until := ppsim.Time(10_000_000 / div)
	return []part{{
		label:  "rr/n16384",
		cfg:    ppsim.Config{N: 16384, K: 8, RPrime: 2, DisableChecks: true, Algorithm: ppsim.Algorithm{Name: "rr"}},
		newSrc: func() (ppsim.Source, error) { return ppsim.NewOnOff(2, 8, 152, until, seed) },
		opts:   ppsim.Options{MaxSlots: maxSlots(until)},
		engine: "event", bound: noBound, traced: true,
	}}, nil
}

// dispatchAlgs are the plane-selection families that are not rr.
var dispatchAlgs = []string{"cpa", "cpa-sets", "least-loaded", "random", "perflow-rr"}

// theoremBound returns the paper's upper bound on max RQD for a fault-free
// run of alg on this geometry, or noBound.
func theoremBound(alg string, cfg ppsim.Config) int64 {
	switch alg {
	case "cpa", "cpa-sets":
		if cfg.Speedup() >= bounds.CPAZeroDelaySpeedup() {
			return 0
		}
	case "perflow-rr":
		return bounds.IyerMcKeownUpper(bounds.Params{N: cfg.N, K: cfg.K, RPrime: cfg.RPrime})
	}
	return noBound
}

func dispatchMix(seed, div int64) ([]part, error) {
	until := ppsim.Time(2000 / div)
	var ps []part
	for _, alg := range dispatchAlgs {
		cfg := ppsim.Config{N: 128, K: 32, RPrime: 4, DisableChecks: true, Algorithm: ppsim.Algorithm{Name: alg, Seed: seed}}
		ps = append(ps, part{
			label:  alg + "/n128",
			cfg:    cfg,
			newSrc: func() (ppsim.Source, error) { return ppsim.NewBernoulli(128, 0.8, until, seed), nil },
			opts:   ppsim.Options{MaxSlots: maxSlots(until)},
			engine: "event", bound: theoremBound(alg, cfg), traced: true,
		})
	}
	return ps, nil
}

func overloadAdmit(seed, div int64) ([]part, error) {
	until := ppsim.Time(1_200_000 / div)
	adm, err := ppsim.ParseAdmissionSpec("rate:1/40,burst:4,deadline")
	if err != nil {
		return nil, err
	}
	return []part{{
		label: "rr/n32/admit",
		cfg:   ppsim.Config{N: 32, K: 2, RPrime: 2, DisableChecks: true, Algorithm: ppsim.Algorithm{Name: "rr"}},
		newSrc: func() (ppsim.Source, error) {
			src, err := ppsim.NewHotspot(32, 0.12, 0.95, 0, until, seed)
			if err != nil {
				return nil, err
			}
			return ppsim.WithDeadline(src, 256), nil
		},
		opts:   ppsim.Options{MaxSlots: maxSlots(until), Admission: adm},
		engine: "event", bound: noBound, traced: true,
	}}, nil
}

// sweepAlgs is every registered algorithm with the parameters the paper's
// experiments use at K=8, r'=2.
func sweepAlgs(seed int64) []ppsim.Algorithm {
	return []ppsim.Algorithm{
		{Name: "rr"}, {Name: "perflow-rr"}, {Name: "partition", D: 2},
		{Name: "random", Seed: seed}, {Name: "least-loaded"},
		{Name: "cpa"}, {Name: "cpa-rotate"}, {Name: "cpa-sets"},
		{Name: "stale-cpa", U: 4}, {Name: "stale-cpa-randtie", U: 4, Seed: seed},
		{Name: "buffered-cpa", U: 4}, {Name: "buffered-rr"}, {Name: "ftd", H: 2},
	}
}

func sweepSmall(seed, div int64) ([]part, error) {
	until, horizon := ppsim.Time(1000/div), ppsim.Time(20000/div)
	faultSpec := fmt.Sprintf("fail:1@%d,recover:1@%d", 250/div, 750/div)
	var ps []part
	for _, alg := range sweepAlgs(seed) {
		for _, n := range []int{8, 16, 32} {
			for ds := int64(0); ds < 2; ds++ {
				n, s := n, seed+ds
				cfg := ppsim.Config{N: n, K: 8, RPrime: 2, Algorithm: alg}
				if alg.InputBuffered() {
					cfg.BufferCap = -1
				}
				p := part{
					label:  fmt.Sprintf("%s/n%d/s%d", alg.Name, n, ds),
					cfg:    cfg,
					newSrc: func() (ppsim.Source, error) { return ppsim.Shape(n, 4, ppsim.NewBernoulli(n, 0.75, until, s)), nil },
					opts:   ppsim.Options{Horizon: horizon, MaxSlots: maxSlots(horizon), Validate: true},
					engine: "event", bound: theoremBound(alg.Name, cfg),
					// One representative per algorithm: the fault-free N=32 point.
					traced: n == 32 && ds == 0,
				}
				if alg.Name == "stale-cpa" || alg.Name == "stale-cpa-randtie" {
					p.engine = "stepped" // the stale family does not certify idle elision
				}
				if ds == 1 && !alg.InputBuffered() {
					sched, err := ppsim.ParseFaultSpec(faultSpec)
					if err != nil {
						return nil, err
					}
					p.opts.Faults, p.opts.FaultPolicy = sched, ppsim.FaultDropCount
					p.bound = noBound // the theorems assume K live planes
				}
				ps = append(ps, p)
			}
		}
	}
	return ps, nil
}

var workloads = []workload{
	{name: "dense-bursty", oracleDiv: 20, parts: dense(0),
		why: "saturated N=1024 on/off at load 0.6 on the serial event core: mux, recorder and shadow dominate; slot elision is bypassed"},
	{name: "dense-par2", oracleDiv: 20, parts: dense(2),
		why: "the same cells through the 2-worker stage-parallel stepped engine: guards the barrier path; recorder and shadow stay serial"},
	{name: "sparse-long", oracleDiv: 2000, parts: sparseLong,
		why: "N=16384 with ~90% silent slots: event-core jumps, traffic look-ahead and O(cells) memory; mux and demux do almost nothing"},
	{name: "dispatch-mix", oracleDiv: 20, parts: dispatchMix,
		why: "K=32 under cpa, cpa-sets, least-loaded, random and perflow-rr: the only place plane selection is not rr, so demux cost shows"},
	{name: "overload-admit", oracleDiv: 20, parts: overloadAdmit,
		why: "hotspot overload where admission rejects ~79% of cells before stamping: traffic and admission dominate, fabric does not"},
	{name: "sweep-small", oracleDiv: 20, parts: sweepSmall, sweep: true,
		why: "78 short checked runs over all 13 algorithms with validator, regulator and faults: construction and per-run tables dominate"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
