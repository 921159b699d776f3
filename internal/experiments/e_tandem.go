package experiments

import (
	"fmt"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/faults"
	"ppsim/internal/harness"
	"ppsim/internal/netcalc"
	"ppsim/internal/obs"
	"ppsim/internal/pipeline"
	"ppsim/internal/traffic"
)

func init() {
	register("E23", "Tandem: two PPS in series against the convolved service curve", e23Tandem)
	register("E24", "Section 3: plane failure under unpartitioned vs partitioned dispatch", e24Failure)
}

// e23Tandem chains two switches: output j of the first feeds input j of the
// second (re-clocked as fresh arrivals). Network calculus predicts the
// end-to-end behaviour from the convolution of the two service curves and
// the inflated burstiness of the intermediate stream; the measured
// end-to-end delay must respect the bound.
func e23Tandem() (*Table, error) {
	const n, k, rp, bb = 8, 8, 4, 5 // S = 2 per stage, traffic burstiness 5
	t := &Table{
		ID:      "E23",
		Title:   "Two CPA-dispatched PPS stages in tandem",
		Claim:   "(substrate, [9]) end-to-end delay through two servers is bounded via min-plus convolution; the intermediate stream's burstiness inflates by at most the first stage's backlog bound",
		Columns: []string{"quantity", "bound", "measured"},
	}
	horizon := cell.Time(1500)

	cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
	cpa := func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.MinAvail) }

	// Two CPA stages in series: output j feeds input j, destinations
	// rotated so the second stage does real switching work. The pipeline
	// package tracks cell identity across the stages.
	src := traffic.NewRegulator(n, bb, traffic.NewBernoulli(n, 0.7, horizon, 31))
	res, err := pipeline.Run([]pipeline.Stage{
		{Config: cfg, Factory: cpa, Remap: func(out cell.Port) cell.Port { return (out + 3) % n }},
		{Config: cfg, Factory: cpa},
	}, src, harness.Options{Horizon: horizon * 8, Validate: true})
	if err != nil {
		return nil, fmt.Errorf("E23: %w", err)
	}
	res1 := res.Stages[0]
	measuredMid := res.Stages[1].Burstiness
	worstEndToEnd := res.EndToEnd.Max

	// Calculus: each CPA stage at S = 2 serves one output at least like a
	// rate-1, latency-(B) server under (1, B) traffic (it mimics the OQ
	// switch, whose delay bound is B). End-to-end: convolution.
	alpha := netcalc.FromLeakyBucket(1, bb)
	stage := netcalc.Service{Rate: 1, Latency: 0}
	outCurve, err := netcalc.Output(alpha, stage)
	if err != nil {
		return nil, err
	}
	e2e, err := netcalc.Convolve(stage, stage)
	if err != nil {
		return nil, err
	}
	// Delay through the tandem: alpha against the convolved curve plus the
	// second stage sees the inflated burst.
	d1, err := netcalc.DelayBound(alpha, stage)
	if err != nil {
		return nil, err
	}
	d2, err := netcalc.DelayBound(outCurve, stage)
	if err != nil {
		return nil, err
	}
	_ = e2e
	t.AddRow("stage-1 max delay", ftoa(d1), itoa(res1.Report.MaxPPSDelay))
	t.AddRow("intermediate stream burstiness", ftoa(outCurve.Burst), itoa(measuredMid))
	t.AddRow("end-to-end max delay", ftoa(d1+d2), itoa(worstEndToEnd))
	return t, nil
}

// e24Failure quantifies the fault-tolerance argument of Section 3: "if a
// demultiplexor sends cells only through d < K planes, a damage in one
// plane causes more cell dropping than if all K planes are utilized" — and
// conversely, with static partitioning a failed plane strands only its own
// group while unpartitioned dispatch eventually routes *every* input into
// the failed plane.
func e24Failure() (*Table, error) {
	const n, k, rp = 16, 4, 2
	t := &Table{
		ID:      "E24",
		Title:   "Plane 0 fails: exposure under unpartitioned vs partitioned dispatch",
		Claim:   "Section 3: 'fault tolerance dictates each demultiplexor may send a cell destined for any output through any plane' — partitioning with d = r' leaves a stranded group that cannot sustain rate R once one of its planes dies",
		Columns: []string{"algorithm", "inputs exposed to the dead plane", "inputs never touching it", "first failure slot"},
		Notes: []string{
			"the model forbids drops, so the fabric halts an input's run at its first dispatch into the failed plane",
			"unpartitioned rr exposes every input but retains K-1 >= r' usable planes — a failure-aware variant could skip the dead plane and still sustain rate R; the partitioned group has only d-1 < r' planes left and cannot, no matter how clever (footnote 4 of the paper)",
		},
	}
	algs := []struct {
		name string
		mk   func(demux.Env) (demux.Algorithm, error)
	}{
		{"rr (unpartitioned)", rrFactory},
		{"partition d=2", func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaticPartition(e, 2) }},
	}
	horizon := cell.Time(200)
	cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
	dead := faults.NewSchedule().FailAt(0, 0)
	for _, a := range algs {
		// The fabric halts an execution at the first dispatch into a dead
		// plane (the model forbids drops), so probe each input on its own
		// fresh switch: feed it a steady flow and see whether it ever
		// routes into plane 0. That violation is the run's last event, so a
		// one-event ring keeps it.
		exposed := 0
		firstFail := cell.Time(-1)
		for i := 0; i < n; i++ {
			src := traffic.NewTrace()
			for slot := cell.Time(0); slot < horizon; slot++ {
				src.MustAdd(slot, cell.Port(i), cell.Port(int(slot)%n))
			}
			ring := obs.NewRingSink(1)
			_, err := harness.Run(cfg, a.mk, src, harness.Options{Faults: dead, Tracer: obs.NewTracer(ring)})
			if err == nil {
				continue
			}
			last := ring.Events()
			if len(last) == 0 || last[0].Kind != obs.EvViolation {
				return nil, err
			}
			exposed++
			if firstFail < 0 || last[0].T < firstFail {
				firstFail = last[0].T
			}
		}
		ff := "-"
		if firstFail >= 0 {
			ff = itoa(firstFail)
		}
		t.AddRow(a.name, itoa(exposed), itoa(n-exposed), ff)
	}
	return t, nil
}
