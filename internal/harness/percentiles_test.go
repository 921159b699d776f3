package harness

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/fabric"
	"ppsim/internal/faults"
	"ppsim/internal/obs"
	"ppsim/internal/stats"
	"ppsim/internal/traffic"
)

// delayCollector gathers exact per-cell delay samples through OnPPSDepart —
// the reference the streaming histograms are checked against.
type delayCollector struct {
	demux, plane, reseq, total, gaps []int64
	lastDep                          map[cell.Port]cell.Time
}

func newDelayCollector() *delayCollector {
	return &delayCollector{lastDep: make(map[cell.Port]cell.Time)}
}

func (dc *delayCollector) observe(c cell.Cell) {
	dc.demux = append(dc.demux, int64(c.Dispatch-c.Arrive))
	dc.plane = append(dc.plane, int64(c.AtOutput-c.Dispatch))
	dc.reseq = append(dc.reseq, int64(c.Depart-c.AtOutput))
	dc.total = append(dc.total, int64(c.Depart-c.Arrive))
	if last, ok := dc.lastDep[c.Flow.Out]; ok {
		dc.gaps = append(dc.gaps, int64(c.Depart-last))
	}
	dc.lastDep[c.Flow.Out] = c.Depart
}

// checkQuantiles asserts the histogram-derived block q against the exact
// sample set: N/Min/Max exact, and each headline percentile within the width
// of the log bucket holding the exact answer.
func checkQuantiles(t *testing.T, name string, q obs.Quantiles, samples []int64) {
	t.Helper()
	if q.N != int64(len(samples)) {
		t.Fatalf("%s: histogram holds %d samples, exact set has %d", name, q.N, len(samples))
	}
	if len(samples) == 0 {
		return
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if q.Min != sorted[0] || q.Max != sorted[len(sorted)-1] {
		t.Fatalf("%s: min/max %d/%d not exact (want %d/%d)", name, q.Min, q.Max, sorted[0], sorted[len(sorted)-1])
	}
	for _, pc := range []struct {
		p   float64
		got int64
	}{{50, q.P50}, {99, q.P99}, {99.9, q.P999}} {
		exact := stats.Percentile(sorted, pc.p)
		w := obs.BucketWidth(exact)
		if diff := pc.got - exact; diff >= w || diff <= -w {
			t.Fatalf("%s p%v: histogram %d vs exact %d, off by more than bucket width %d",
				name, pc.p, pc.got, exact, w)
		}
	}
}

// TestPercentilesMatchExactMatrix is the accuracy and determinism contract
// of the delay-attribution histograms: for every registered algorithm, the
// histogram-derived p50/p99/p999 of each component must sit within one log
// bucket of the exact sorted-sample percentiles, and the full Result —
// percentile block included — must stay bit-identical across the serial
// event core, the stage-parallel stepped core (1 and 4 workers), and an
// explicit event request in each worker configuration (which degrades to
// stepped, with a recorded reason, under workers).
func TestPercentilesMatchExactMatrix(t *testing.T) {
	const n = 8
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
	// On/off traffic: bursts stress the resequencer (non-trivial component
	// tails) and the idle gaps between bursts give the event core real
	// intervals to elide.
	mkSrc := func() traffic.Source {
		src, err := traffic.NewOnOff(n, 8, 48, 512, 5)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	for _, alg := range matrixAlgs {
		t.Run(alg.name, func(t *testing.T) {
			run := func(workers int, eng Engine, on func(cell.Cell)) Result {
				res, err := Run(cfg, alg.mk, mkSrc(),
					Options{Validate: true, Utilization: true, Workers: workers,
						Engine: eng, OnPPSDepart: on})
				if err != nil {
					t.Fatalf("workers=%d engine=%v: %v", workers, eng, err)
				}
				return res
			}
			dc := newDelayCollector()
			serial := run(0, EngineAuto, dc.observe)
			if serial.Report.Cells == 0 {
				t.Fatal("empty run")
			}
			q := serial.Report.Percentiles
			checkQuantiles(t, "demux", q.Demux, dc.demux)
			checkQuantiles(t, "plane", q.Plane, dc.plane)
			checkQuantiles(t, "reseq", q.Reseq, dc.reseq)
			checkQuantiles(t, "total", q.Total, dc.total)
			checkQuantiles(t, "interdep", q.Gap, dc.gaps)
			// RQD: the report carries the exact nearest-rank percentiles
			// beside the histogram block; they must agree within a bucket.
			for _, pc := range []struct {
				p     string
				exact cell.Time
				got   int64
			}{
				{"p50", serial.Report.P50RQD, q.RQD.P50},
				{"p99", serial.Report.P99RQD, q.RQD.P99},
				{"p999", serial.Report.P999RQD, q.RQD.P999},
			} {
				w := obs.BucketWidth(int64(pc.exact))
				if diff := pc.got - int64(pc.exact); diff >= w || diff <= -w {
					t.Fatalf("rqd %s: histogram %d vs exact %d, off by more than bucket width %d",
						pc.p, pc.got, pc.exact, w)
				}
			}
			if q.RQD.N != int64(serial.Report.Cells) {
				t.Fatalf("rqd histogram holds %d samples, want %d", q.RQD.N, serial.Report.Cells)
			}
			// Engine matrix: every variant must reproduce the serial Result
			// bit-identically, streaming percentile block included. The
			// "ff" label predates the event core and is kept so the subtest
			// IDs stay stable: ff=true is an explicit request for idle
			// elision (Engine: EngineEvent), ff=false leaves the choice to
			// auto. Elision is serial-only, so a request under workers must
			// degrade to stepped and say why.
			for _, v := range []struct {
				workers int
				elide   bool
			}{{1, false}, {4, false}, {0, true}, {1, true}, {4, true}} {
				v := v
				t.Run(fmt.Sprintf("w%d_ff%v", v.workers, v.elide), func(t *testing.T) {
					eng := EngineAuto
					if v.elide {
						eng = EngineEvent
					}
					got := run(v.workers, eng, nil)
					if !reflect.DeepEqual(stripEngine(serial), stripEngine(got)) {
						t.Errorf("result diverges from serial\nserial: %+v\nvariant: %+v", serial, got)
					}
					if got.Engine == "stepped" && got.EngineReason == "" {
						t.Errorf("run degraded to stepped without a reason")
					}
					if v.workers != 0 && got.Engine != "stepped" {
						t.Errorf("stage-parallel run recorded engine %q, want stepped", got.Engine)
					}
				})
			}
		})
	}
}

// TestDelayDecompositionConserves asserts per-cell conservation: for every
// delivered cell the fabric sets all attribution stamps in order, the three
// components are non-negative and sum to the end-to-end delay — including
// under a mid-run plane outage with the DropCount policy, where dropped
// cells must not leak into the histograms.
func TestDelayDecompositionConserves(t *testing.T) {
	const n = 8
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
	cases := []struct {
		name   string
		opts   Options
		faulty bool
	}{
		{"nofaults", Options{Validate: true}, false},
		{"outage-dropcount", Options{
			Faults:      faults.NewSchedule().Outage(1, 100, 160),
			FaultPolicy: faults.DropCount,
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			delivered := uint64(0)
			opts := tc.opts
			opts.OnPPSDepart = func(c cell.Cell) {
				delivered++
				if c.Dispatch == cell.None || c.AtOutput == cell.None {
					t.Fatalf("cell %d delivered without attribution stamps: %+v", c.Seq, c)
				}
				if !(c.Arrive <= c.Dispatch && c.Dispatch <= c.AtOutput && c.AtOutput <= c.Depart) {
					t.Fatalf("cell %d stamps out of order: arrive=%d dispatch=%d atOutput=%d depart=%d",
						c.Seq, c.Arrive, c.Dispatch, c.AtOutput, c.Depart)
				}
				demux := c.Dispatch - c.Arrive
				plane := c.AtOutput - c.Dispatch
				reseq := c.Depart - c.AtOutput
				if demux+plane+reseq != c.Depart-c.Arrive {
					t.Fatalf("cell %d decomposition does not conserve: %d+%d+%d != %d",
						c.Seq, demux, plane, reseq, c.Depart-c.Arrive)
				}
			}
			res, err := Run(cfg, matrixAlgs[0].mk, traffic.NewBernoulli(n, 0.6, 256, 11), opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Report.Cells == 0 || delivered != res.Report.Cells {
				t.Fatalf("delivered %d cells, report says %d", delivered, res.Report.Cells)
			}
			if tc.faulty && res.Drops == 0 {
				t.Fatal("outage case dropped nothing; schedule not exercised")
			}
			q := res.Report.Percentiles
			// Every delivered cell, and only delivered cells, lands in each
			// component histogram; dropped cells appear nowhere.
			for name, got := range map[string]int64{
				"demux": q.Demux.N, "plane": q.Plane.N, "reseq": q.Reseq.N,
				"total": q.Total.N, "rqd": q.RQD.N,
			} {
				if got != int64(res.Report.Cells) {
					t.Errorf("%s histogram holds %d samples, want %d delivered cells", name, got, res.Report.Cells)
				}
			}
			// Conservation also holds in aggregate: the exact component sums
			// (mean·n) add up to the total-delay sum.
			sum := func(x obs.Quantiles) int64 { return int64(x.Mean*float64(x.N) + 0.5) }
			if s := sum(q.Demux) + sum(q.Plane) + sum(q.Reseq); s != sum(q.Total) {
				t.Errorf("aggregate decomposition off: %d != %d", s, sum(q.Total))
			}
		})
	}
}
