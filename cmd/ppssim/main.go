// Command ppssim runs one configured PPS simulation against the shadow
// reference switch and prints the relative-delay report.
//
// Examples:
//
//	ppssim -n 16 -k 8 -rprime 2 -alg rr -traffic bernoulli -load 0.7 -slots 10000
//	ppssim -n 32 -k 4 -rprime 2 -alg rr -traffic steering
//	ppssim -n 16 -k 16 -rprime 8 -alg buffered-cpa -u 4 -bufcap 5 -traffic bernoulli
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ppsim"
)

func main() {
	var (
		n          = flag.Int("n", 16, "external ports N")
		k          = flag.Int("k", 8, "center-stage planes K")
		rprime     = flag.Int64("rprime", 2, "internal line occupancy r' = R/r")
		alg        = flag.String("alg", "rr", "demultiplexing algorithm (see -algs)")
		d          = flag.Int("d", 2, "partition size (alg=partition)")
		u          = flag.Int64("u", 2, "staleness / buffer lag (alg=stale-cpa, buffered-cpa)")
		h          = flag.Float64("h", 2, "FTD block parameter (alg=ftd)")
		seed       = flag.Int64("seed", 1, "random seed (traffic and alg=random)")
		cap        = flag.Int("cap", -1, "input buffer capacity (alg=buffered-rr)")
		bufcap     = flag.Int("bufcap", 0, "fabric input-buffer bound: 0 bufferless, -1 unbounded")
		lazy       = flag.Bool("lazy", false, "use the lazy FCFS output multiplexor")
		kind       = flag.String("traffic", "bernoulli", "traffic: bernoulli, hotspot, onoff, trickle, permutation, flood, steering, concentration, herding")
		load       = flag.Float64("load", 0.6, "per-input load (bernoulli, hotspot, onoff)")
		shapeB     = flag.Int64("shape", -1, "wrap traffic in an (R,B) regulator; -1 = off")
		slots      = flag.Int64("slots", 5000, "traffic horizon in slots")
		algs       = flag.Bool("algs", false, "list algorithms and exit")
		verbose    = flag.Bool("v", false, "print utilization per output")
		pctl       = flag.Bool("percentiles", false, "print the per-component delay percentile table (rqd, demux, plane, reseq, total, inter-departure gap)")
		workers    = flag.Int("workers", 0, "stage-parallel fabric workers: 0 serial, -1 auto, >0 explicit")
		engine     = flag.String("engine", "auto", "slot-execution core: auto, stepped, event")
		trace      = flag.String("trace", "", "write a JSONL event trace to FILE")
		series     = flag.String("series", "", "write per-slot probe series CSV to FILE")
		stride     = flag.Int64("stride", 1, "sample every stride-th slot (with -series)")
		failPlanes = flag.String("fail-planes", "", "comma-separated plane IDs failed before slot 0")
		faultSpec  = flag.String("faults", "", "fault schedule, e.g. fail:0@100,recover:0@500,loss:2@0.001,seed:7")
		faultPol   = flag.String("fault-policy", "abort", "degradation policy: abort or dropcount")
		faultaware = flag.Bool("faultaware", false, "wrap the algorithm with failure-aware dispatch (masks failed planes)")
		admSpec    = flag.String("admission", "", "admission policy, e.g. rate:1/2,burst:16,agg-rate:8,agg-burst:64,deadline")
		deadline   = flag.Int64("deadline", 0, "stamp each arrival with a departure deadline of its arrival slot + N (0 = off)")
	)
	flag.Parse()

	if err := validateStride(*stride); err != nil {
		fmt.Fprintln(os.Stderr, "ppssim:", err)
		flag.Usage()
		os.Exit(2)
	}
	failed, err := parseFailPlanes(*failPlanes, *k)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppssim:", err)
		flag.Usage()
		os.Exit(2)
	}
	eng, err := ppsim.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppssim:", err)
		flag.Usage()
		os.Exit(2)
	}
	policy, err := ppsim.ParseFaultPolicy(*faultPol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppssim:", err)
		flag.Usage()
		os.Exit(2)
	}
	schedule, err := ppsim.ParseFaultSpec(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppssim:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := schedule.Validate(*k); err != nil {
		fmt.Fprintln(os.Stderr, "ppssim:", err)
		flag.Usage()
		os.Exit(2)
	}
	adm, err := ppsim.ParseAdmissionSpec(*admSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppssim:", err)
		flag.Usage()
		os.Exit(2)
	}
	if *deadline < 0 {
		fmt.Fprintln(os.Stderr, "ppssim: -deadline must be >= 0")
		flag.Usage()
		os.Exit(2)
	}
	if schedule.HasLoss() && policy != ppsim.FaultDropCount {
		fmt.Fprintln(os.Stderr, "ppssim: -faults loss terms require -fault-policy dropcount")
		flag.Usage()
		os.Exit(2)
	}

	if *algs {
		for _, name := range ppsim.AlgorithmNames() {
			fmt.Println(name)
		}
		return
	}

	cfg := ppsim.Config{
		N: *n, K: *k, RPrime: *rprime,
		BufferCap: *bufcap,
		LazyMux:   *lazy,
		Algorithm: ppsim.Algorithm{Name: *alg, D: *d, U: ppsim.Time(*u), H: *h, Seed: *seed, Capacity: *cap, FaultAware: *faultaware},
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "ppssim:", err)
		os.Exit(2)
	}

	src, err := buildTraffic(cfg, *kind, *load, *seed, ppsim.Time(*slots))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppssim:", err)
		os.Exit(2)
	}
	if *shapeB >= 0 {
		src = ppsim.Shape(*n, *shapeB, src)
	}
	// Deadlines wrap outermost so they stamp the post-shaping arrival slot.
	if *deadline > 0 {
		src = ppsim.WithDeadline(src, ppsim.Time(*deadline))
	}

	opts := ppsim.Options{
		Horizon:     ppsim.Time(*slots) * 8,
		Validate:    true,
		Workers:     *workers,
		FailPlanes:  failed,
		FaultPolicy: policy,
		Engine:      eng,
	}
	if !adm.Empty() {
		opts.Admission = adm
	}
	if !schedule.Empty() {
		opts.Faults = schedule
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppssim:", err)
			os.Exit(1)
		}
		defer f.Close()
		opts.Tracer = ppsim.NewJSONLTracer(f)
	}
	if *series != "" {
		opts.Probes = ppsim.StandardProbes(*n, *k, ppsim.Time(*stride), 0)
	}

	res, err := ppsim.Run(cfg, src, opts)
	// Flush the buffered JSONL trace as soon as the run is over — before any
	// exit path — so the tail survives even a failed run (a violation trace
	// is most valuable exactly then). Close is nil-safe without -trace.
	if cerr := opts.Tracer.Close(); cerr != nil {
		fmt.Fprintln(os.Stderr, "ppssim: trace:", cerr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppssim:", err)
		os.Exit(1)
	}
	// An explicit request for elision can silently degrade (tracer attached,
	// per-slot source, no idle invariant, parallel workers). Surface the
	// recorded reason so users asking for elision learn they ran stepped.
	if res.EngineReason != "" && eng != ppsim.EngineAuto {
		fmt.Fprintf(os.Stderr, "ppssim: engine degraded to %s: %s\n", res.Engine, res.EngineReason)
	}

	fmt.Printf("switch: N=%d K=%d r'=%d S=%.2f traffic=%s\n",
		*n, *k, *rprime, cfg.Speedup(), *kind)
	fmt.Println(res)
	if *pctl {
		fmt.Println("delay percentiles (slots):")
		fmt.Print(res.Report.PercentileTable())
	}
	if *verbose {
		for j, u := range res.Utilization {
			if u > 0 {
				fmt.Printf("output %2d utilization: %.4f\n", j, u)
			}
		}
	}

	if *series != "" {
		f, err := os.Create(*series)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppssim:", err)
			os.Exit(1)
		}
		if err := ppsim.WriteSeriesCSV(f, res.Series); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppssim:", err)
			os.Exit(1)
		}
	}
}

func buildTraffic(cfg ppsim.Config, kind string, load float64, seed int64, slots ppsim.Time) (ppsim.Source, error) {
	n := cfg.N
	switch kind {
	case "bernoulli":
		return ppsim.NewBernoulli(n, load, slots, seed), nil
	case "hotspot":
		return ppsim.NewHotspot(n, load, 0.5, 0, slots, seed)
	case "onoff":
		meanOn := 8.0
		meanOff := meanOn * (1 - load) / load
		if meanOff < 1 {
			meanOff = 1
		}
		return ppsim.NewOnOff(n, meanOn, meanOff, slots, seed)
	case "trickle":
		// Two concentrated on/off flows at per-flow load -load; the other
		// N-2 inputs stay silent. Unlike onoff (where every input carries a
		// flow, so some input is almost always on at large N), the fabric is
		// globally quiescent most slots — the long-horizon workload the
		// event core elides.
		meanOn := 8.0
		meanOff := meanOn * (1 - load) / load
		if meanOff < 1 {
			meanOff = 1
		}
		return ppsim.NewOnOff(2, meanOn, meanOff, slots, seed)
	case "permutation":
		perm := make([]ppsim.Port, n)
		for i := range perm {
			perm[i] = ppsim.Port((i + 1) % n)
		}
		return ppsim.NewPermutation(perm, slots)
	case "flood":
		return ppsim.NewFlood(n, 0, slots/4), nil
	case "steering":
		return ppsim.SteeringTrace(cfg, ppsim.AllInputs(n), 0, 1, 16, seed)
	case "concentration":
		return ppsim.ConcentrationTrace(n, n, 0)
	case "herding":
		return ppsim.HerdingTrace(n, 0, 4, n/4, 4)
	default:
		return nil, fmt.Errorf("unknown traffic kind %q", kind)
	}
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

// parseFailPlanes parses the -fail-planes list and validates every ID
// against K, reporting all bad entries in one error.
func parseFailPlanes(spec string, k int) ([]ppsim.PlaneID, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var planes []ppsim.PlaneID
	var bad []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		id, err := strconv.Atoi(part)
		if err != nil || id < 0 || id >= k {
			bad = append(bad, part)
			continue
		}
		planes = append(planes, ppsim.PlaneID(id))
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("-fail-planes: invalid plane(s) %s (planes are 0..%d)", strings.Join(bad, ", "), k-1)
	}
	return planes, nil
}
