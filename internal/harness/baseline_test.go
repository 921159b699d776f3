package harness

import (
	"strings"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/cioq"
	"ppsim/internal/crossbar"
	"ppsim/internal/faults"
	"ppsim/internal/obs"
	"ppsim/internal/shadow"
	"ppsim/internal/traffic"
)

// mapJoin is the hand loop baselines were measured by before Drive took
// them: step the switch beside a stepped shadow.Switch and join the two
// departure streams by Seq through maps.
func mapJoin(t *testing.T, sw Switch, src traffic.Source) (cells uint64, maxRQD cell.Time, meanRQD float64) {
	t.Helper()
	sh := shadow.New(sw.Ports())
	st := cell.NewStamper()
	swDep, shDep := map[uint64]cell.Time{}, map[uint64]cell.Time{}
	end := src.End()
	var buf []traffic.Arrival
	var deps, shDeps []cell.Cell
	for slot := cell.Time(0); slot < end || !sw.Drained() || !sh.Drained(); slot++ {
		if slot > 1<<16 {
			t.Fatal("map join did not drain")
		}
		var cells []cell.Cell
		if slot < end {
			buf = src.Arrivals(slot, buf[:0])
			for _, a := range buf {
				cells = append(cells, st.Stamp(cell.Flow{In: a.In, Out: a.Out}, slot))
			}
		}
		var err error
		if deps, err = sw.Step(slot, cells, deps[:0]); err != nil {
			t.Fatal(err)
		}
		for _, d := range deps {
			swDep[d.Seq] = d.Depart
		}
		shDeps = sh.Step(slot, cells, shDeps[:0])
		for _, d := range shDeps {
			shDep[d.Seq] = d.Depart
		}
	}
	var sum float64
	for seq, d := range swDep {
		rqd := d - shDep[seq]
		sum += float64(rqd)
		maxRQD = max(maxRQD, rqd)
	}
	return uint64(len(swDep)), maxRQD, sum / float64(len(swDep))
}

// TestDriveBaselineMatchesMapJoin pins Drive's Oracle + Recorder join for the
// baselines to the map join it replaced: same cells, same max and mean RQD.
func TestDriveBaselineMatchesMapJoin(t *testing.T) {
	const n, slots = 8, 300
	baselines := []struct {
		name string
		mk   func(seed int64) (Switch, error)
	}{
		{"islip/1", func(seed int64) (Switch, error) { return crossbar.NewWithArbiter(n, 1, crossbar.ISLIP, seed) }},
		{"islip/2", func(seed int64) (Switch, error) { return crossbar.NewWithArbiter(n, 2, crossbar.ISLIP, seed) }},
		{"pim/1", func(seed int64) (Switch, error) { return crossbar.NewWithArbiter(n, 1, crossbar.PIM, seed) }},
		{"pim/2", func(seed int64) (Switch, error) { return crossbar.NewWithArbiter(n, 2, crossbar.PIM, seed) }},
		{"cioq/1", func(int64) (Switch, error) { return cioq.New(n, 1) }},
		{"cioq/2", func(int64) (Switch, error) { return cioq.New(n, 2) }},
	}
	for _, b := range baselines {
		for seed := int64(1); seed <= 3; seed++ {
			ref, err := b.mk(seed)
			if err != nil {
				t.Fatal(err)
			}
			cells, maxRQD, meanRQD := mapJoin(t, ref, traffic.NewBernoulli(n, 0.9, slots, seed))
			sw, _ := b.mk(seed)
			res, err := Drive(sw, traffic.NewBernoulli(n, 0.9, slots, seed), Options{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", b.name, seed, err)
			}
			rep := res.Report
			if rep.Cells != cells || rep.MaxRQD != maxRQD || rep.MeanRQD != meanRQD {
				t.Errorf("%s seed %d: Drive cells/max/mean %d/%d/%v, map join %d/%d/%v",
					b.name, seed, rep.Cells, rep.MaxRQD, rep.MeanRQD, cells, maxRQD, meanRQD)
			}
		}
	}
}

// TestDriveBaselineRejectsPPSOnlyOptions: a baseline given an option only a
// PPS honours errors up front, and every engine request steps it.
func TestDriveBaselineRejectsPPSOnlyOptions(t *testing.T) {
	const n = 4
	tr := traffic.NewTrace()
	tr.MustAdd(0, 0, 1)
	rows := []struct {
		option string
		opts   Options
	}{
		{"Probes", Options{Probes: []*obs.Probe{obs.NewPlaneBacklogProbe(1, 1, 0)}}},
		{"Tracer", Options{Tracer: obs.NewTracer(obs.NullSink{})}},
		{"Faults", Options{Faults: faults.NewSchedule()}},
		{"FaultPolicy", Options{FaultPolicy: faults.DropCount}},
		{"Workers", Options{Workers: -1}},
	}
	for _, r := range rows {
		sw, _ := crossbar.New(n, 1)
		if _, err := Drive(sw, tr, r.opts); err == nil || !strings.Contains(err.Error(), "Options."+r.option) {
			t.Errorf("%s: err = %v, want it named", r.option, err)
		}
	}
	for eng, reason := range map[Engine]string{
		EngineAuto:    "switch under test is not a PPS",
		EngineEvent:   "switch under test is not a PPS",
		EngineStepped: "",
	} {
		sw, _ := cioq.New(n, 1)
		res, err := Drive(sw, tr, Options{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine != "stepped" || res.EngineReason != reason || res.Report.Cells != 1 {
			t.Errorf("%s: engine %q (%q), %d cells; want stepped (%q), 1 cell", eng, res.Engine, res.EngineReason, res.Report.Cells, reason)
		}
	}
}
