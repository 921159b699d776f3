package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ppsim"
)

// simCmd runs one configured PPS simulation against the shadow reference
// switch and prints the relative-delay report.
//
//	ppsim sim -n 16 -k 8 -rprime 2 -alg rr -traffic bernoulli -load 0.7 -slots 10000
//	ppsim sim -n 32 -k 4 -rprime 2 -alg rr -traffic steering
//	ppsim sim -n 16 -k 16 -rprime 8 -alg buffered-cpa -u 4 -bufcap 5 -traffic bernoulli
func simCmd(fs *flag.FlagSet) func(io.Writer) int {
	s := switchFlags{n: 16, k: 8, rprime: 2, alg: "rr", d: 2, u: 2, h: 2, seed: 1, kind: "bernoulli", load: 0.6, slots: 5000}
	s.register(fs, "n", "k", "rprime", "alg", "d", "u", "h", "seed", "traffic", "load", "slots")
	var (
		capacity   = fs.Int("cap", -1, "input buffer capacity (alg=buffered-rr)")
		bufcap     = fs.Int("bufcap", 0, "fabric input-buffer bound: 0 bufferless, -1 unbounded")
		shapeB     = fs.Int64("shape", -1, "wrap traffic in an (R,B) regulator; -1 = off")
		algs       = fs.Bool("algs", false, "list algorithms and exit")
		verbose    = fs.Bool("v", false, "print utilization per output")
		pctl       = fs.Bool("percentiles", false, "print the per-component delay percentile table (rqd, demux, plane, reseq, total, inter-departure gap)")
		workers    = fs.Int("workers", 0, "stage-parallel fabric workers: 0 serial, -1 auto, >0 explicit")
		engine     = fs.String("engine", "auto", "slot-execution core: auto, stepped, event")
		trace      = fs.String("trace", "", "write a JSONL event trace to FILE")
		series     = fs.String("series", "", "write per-slot probe series CSV to FILE")
		stride     = fs.Int64("stride", 1, "sample every stride-th slot (with -series)")
		failPlanes = fs.String("fail-planes", "", "comma-separated plane IDs failed before slot 0 (fail:P@0 on the -faults schedule)")
		faultSpec  = fs.String("faults", "", "fault schedule, e.g. fail:0@100,recover:0@500,loss:2@0.001,seed:7")
		faultPol   = fs.String("fault-policy", "abort", "degradation policy: abort or dropcount")
		faultaware = fs.Bool("faultaware", false, "wrap the algorithm with failure-aware dispatch (masks failed planes)")
		admSpec    = fs.String("admission", "", "admission policy, e.g. rate:1/2,burst:16,agg-rate:8,agg-burst:64,deadline")
		deadline   = fs.Int64("deadline", 0, "stamp each arrival with a departure deadline of its arrival slot + N (0 = off)")
	)
	return func(stdout io.Writer) int {
		if err := validateStride(*stride); err != nil {
			return usageError(fs, err)
		}
		if s.slots < 1 {
			return fail(fs, 2, fmt.Errorf("-slots %d must be >= 1", s.slots))
		}
		if *workers < -1 {
			return fail(fs, 2, fmt.Errorf("-workers %d must be -1 (auto), 0 (serial) or positive", *workers))
		}
		eng, err := ppsim.ParseEngine(*engine)
		if err != nil {
			return usageError(fs, err)
		}
		policy, err := ppsim.ParseFaultPolicy(*faultPol)
		if err != nil {
			return usageError(fs, err)
		}
		schedule, err := ppsim.ParseFaultSpec(*faultSpec)
		if err == nil {
			err = failFromStart(schedule, *failPlanes)
		}
		if err == nil {
			err = schedule.Validate(s.k)
		}
		if err != nil {
			return fail(fs, 2, err)
		}
		adm, err := ppsim.ParseAdmissionSpec(*admSpec)
		if err != nil {
			return usageError(fs, err)
		}
		if *deadline < 0 {
			return usageError(fs, errors.New("-deadline must be >= 0"))
		}
		if schedule.HasLoss() && policy != ppsim.FaultDropCount {
			return usageError(fs, errors.New("-faults loss terms require -fault-policy dropcount"))
		}

		if *algs {
			fmt.Fprintln(stdout, strings.Join(ppsim.AlgorithmNames(), "\n"))
			return 0
		}

		cfg := s.config()
		cfg.BufferCap = *bufcap
		cfg.Algorithm.Capacity, cfg.Algorithm.FaultAware = *capacity, *faultaware
		if err := cfg.Validate(); err != nil {
			return fail(fs, 2, err)
		}
		src, err := s.source(cfg)
		if err != nil {
			return fail(fs, 2, err)
		}
		if *shapeB >= 0 {
			src = ppsim.Shape(s.n, *shapeB, src)
		}
		// Deadlines wrap outermost so they stamp the post-shaping arrival slot.
		if *deadline > 0 {
			src = ppsim.WithDeadline(src, ppsim.Time(*deadline))
		}

		opts := ppsim.Options{
			Horizon:     ppsim.Time(s.slots) * 8,
			Validate:    true,
			Workers:     *workers,
			Faults:      schedule,
			FaultPolicy: policy,
			Admission:   adm,
			Engine:      eng,
		}
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				return fail(fs, 1, err)
			}
			defer f.Close()
			opts.Tracer = ppsim.NewJSONLTracer(f)
		}
		if *series != "" {
			opts.Probes = ppsim.StandardProbes(s.n, s.k, ppsim.Time(*stride), 0)
		}

		res, err := ppsim.Run(cfg, src, opts)
		// Flush the buffered JSONL trace as soon as the run is over — before
		// any exit path — so the tail survives even a failed run (a violation
		// trace is most valuable exactly then). Close is nil-safe without
		// -trace.
		if cerr := opts.Tracer.Close(); cerr != nil {
			fmt.Fprintf(fs.Output(), "%s: trace: %v\n", fs.Name(), cerr)
		}
		if err != nil {
			return fail(fs, 1, err)
		}
		// An explicit request for elision can silently degrade (per-slot
		// source, a u-RT algorithm, parallel workers). Surface the recorded
		// reason so users asking for elision learn they ran stepped.
		if res.EngineReason != "" && eng != ppsim.EngineAuto {
			fmt.Fprintf(fs.Output(), "%s: engine degraded to %s: %s\n", fs.Name(), res.Engine, res.EngineReason)
		}

		fmt.Fprintf(stdout, "switch: N=%d K=%d r'=%d S=%.2f traffic=%s\n",
			s.n, s.k, s.rprime, cfg.Speedup(), s.kind)
		fmt.Fprintln(stdout, res)
		if *pctl {
			fmt.Fprintln(stdout, "delay percentiles (slots):")
			fmt.Fprint(stdout, res.Report.PercentileTable())
		}
		if *verbose {
			for j, u := range res.Utilization {
				if u > 0 {
					fmt.Fprintf(stdout, "output %2d utilization: %.4f\n", j, u)
				}
			}
		}

		if *series == "" {
			return 0
		}
		return exit(fs, writeOutput(*series, stdout, func(w io.Writer) error { return ppsim.WriteSeriesCSV(w, res.Series) }))
	}
}

// failFromStart lowers the -fail-planes list onto the fault schedule: plane
// P becomes the event fail:P@0. The schedule's Validate range-checks the IDs.
func failFromStart(s *ppsim.FaultSchedule, spec string) error {
	if spec = strings.TrimSpace(spec); spec == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		id, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return fmt.Errorf("-fail-planes: %q is not a plane ID", part)
		}
		s.FailAt(ppsim.PlaneID(id), 0)
	}
	return nil
}
