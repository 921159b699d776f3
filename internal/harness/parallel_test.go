package harness

import (
	"fmt"
	"reflect"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/traffic"
)

// matrixAlgs mirrors the public registry (algorithms.go) so the equivalence
// matrix covers every demultiplexor the repo ships, not just round-robin.
var matrixAlgs = []struct {
	name string
	mk   func(e demux.Env) (demux.Algorithm, error)
}{
	{"rr", func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerInput) }},
	{"perflow-rr", func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerFlow) }},
	{"partition", func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaticPartition(e, 2) }},
	{"random", func(e demux.Env) (demux.Algorithm, error) { return demux.NewRandom(e, 7) }},
	{"cpa", func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.MinAvail) }},
	{"cpa-rotate", func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.RotateTie) }},
	{"cpa-sets", func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPASets(e) }},
	{"stale-cpa", func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPA(e, 4) }},
	{"stale-cpa-randtie", func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPARandomTie(e, 4, 7) }},
	{"buffered-cpa", func(e demux.Env) (demux.Algorithm, error) { return demux.NewBufferedCPA(e, 4, demux.MinAvail) }},
	{"buffered-rr", func(e demux.Env) (demux.Algorithm, error) { return demux.NewBufferedRR(e, -1) }},
	{"ftd", func(e demux.Env) (demux.Algorithm, error) { return demux.NewFTD(e, 2) }},
	{"least-loaded", func(e demux.Env) (demux.Algorithm, error) { return demux.NewLocalLeastLoaded(e) }},
}

// TestParallelMatchesSerialMatrix is the determinism contract of the
// stage-parallel engine: for every registered algorithm, every worker count
// and several port counts, a full harness run must produce a Result that is
// bit-identical to the serial engine's. Any divergence — one cell departing
// a slot earlier, one tie broken differently — fails DeepEqual.
func TestParallelMatchesSerialMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full equivalence matrix skipped in -short mode")
	}
	for _, n := range []int{8, 32, 128} {
		horizon := cell.Time(256)
		if n == 128 {
			horizon = 128 // keep the matrix cheap at the widest port count
		}
		cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
		for _, alg := range matrixAlgs {
			run := func(workers int) Result {
				src := traffic.NewBernoulli(n, 0.6, horizon, 11)
				res, err := Run(cfg, alg.mk, src,
					Options{Validate: true, Workers: workers})
				if err != nil {
					t.Fatalf("%s n=%d workers=%d: %v", alg.name, n, workers, err)
				}
				return res
			}
			serial := run(0)
			if serial.Report.Cells == 0 {
				t.Fatalf("%s n=%d: empty serial run", alg.name, n)
			}
			for _, w := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/n%d/w%d", alg.name, n, w), func(t *testing.T) {
					if par := run(w); !reflect.DeepEqual(stripEngine(serial), stripEngine(par)) {
						t.Errorf("parallel result diverges from serial\nserial:   %+v\nparallel: %+v", serial, par)
					}
				})
			}
		}
	}
}
