package fabric

import (
	"reflect"
	"runtime"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/traffic"
)

func TestResolveWorkers(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	cases := []struct {
		workers, n, want int
	}{
		{0, 512, 0},           // serial stays serial
		{3, 512, 3},           // explicit request honored
		{8, 4, 4},             // explicit request clamped to N
		{-1, minShard - 1, 0}, // auto: shard smaller than minShard -> serial
	}
	for _, c := range cases {
		if got := ResolveWorkers(c.workers, c.n); got != c.want {
			t.Errorf("ResolveWorkers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
	// Auto mode is bounded by both GOMAXPROCS and N/minShard.
	got := ResolveWorkers(-1, 1<<20)
	if gmp > 1 {
		if got != gmp {
			t.Errorf("ResolveWorkers(-1, huge) = %d, want GOMAXPROCS %d", got, gmp)
		}
	} else if got != 0 {
		t.Errorf("ResolveWorkers(-1, huge) = %d, want 0 on a single-proc runtime", got)
	}
}

func TestValidateRejectsBadWorkers(t *testing.T) {
	cfg := Config{N: 4, K: 2, RPrime: 1, Workers: -2}
	if err := cfg.Validate(); err == nil {
		t.Error("Workers = -2 must be rejected")
	}
}

// stepBoth drives a serial and a parallel fabric through identical stamped
// traffic, slot by slot, asserting identical departures every slot. Both
// fabrics have their global event log armed, so the parallel engine's
// buffered EvXmit replay is also checked for order equality.
func stepBoth(t *testing.T, workers int) {
	t.Helper()
	const n, horizon = 16, 400
	mk := func(w int) (*PPS, *demux.Log, *demux.Cursor) {
		p, err := New(Config{N: n, K: 4, RPrime: 2, CheckInvariants: true, Workers: w}, rrFactory(demux.PerInput))
		if err != nil {
			t.Fatal(err)
		}
		log := p.Log() // arm the log and register before the first Step
		return p, log, log.NewCursor()
	}
	serial, slog, c1 := mk(0)
	par, plog, c2 := mk(workers)
	defer par.Close()
	if got := par.Workers(); got != workers {
		t.Fatalf("Workers() = %d, want %d", got, workers)
	}

	src := traffic.NewBernoulli(n, 0.7, horizon, 3)
	st1, st2 := cell.NewStamper(), cell.NewStamper()
	var buf []traffic.Arrival
	var cells1, cells2, dep1, dep2 []cell.Cell
	for slot := cell.Time(0); ; slot++ {
		if slot >= horizon && serial.Drained() && par.Drained() {
			break
		}
		buf = src.Arrivals(slot, buf[:0])
		cells1, cells2 = cells1[:0], cells2[:0]
		for _, a := range buf {
			f := cell.Flow{In: a.In, Out: a.Out}
			cells1 = append(cells1, st1.Stamp(f, slot))
			cells2 = append(cells2, st2.Stamp(f, slot))
		}
		var err error
		dep1, err = serial.Step(slot, cells1, dep1[:0])
		if err != nil {
			t.Fatalf("serial slot %d: %v", slot, err)
		}
		dep2, err = par.Step(slot, cells2, dep2[:0])
		if err != nil {
			t.Fatalf("parallel slot %d: %v", slot, err)
		}
		if !reflect.DeepEqual(dep1, dep2) {
			t.Fatalf("slot %d: departures diverge\nserial:   %v\nparallel: %v", slot, dep1, dep2)
		}
		if slot > cell.Time(2*horizon) {
			t.Fatal("switches did not drain")
		}
	}
	if serial.Departed() != par.Departed() || serial.Departed() == 0 {
		t.Fatalf("departed: serial %d, parallel %d", serial.Departed(), par.Departed())
	}
	if slog.Len() != plog.Len() {
		t.Fatalf("log lengths diverge: serial %d, parallel %d", slog.Len(), plog.Len())
	}
	var ev1, ev2 []demux.Event
	slog.Read(c1, cell.Time(1<<40), func(e demux.Event) { ev1 = append(ev1, e) })
	plog.Read(c2, cell.Time(1<<40), func(e demux.Event) { ev2 = append(ev2, e) })
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatal("global event logs diverge between serial and parallel engines")
	}
}

func TestParallelStepMatchesSerialWithArmedLog(t *testing.T) {
	for _, w := range []int{1, 2, 3, 5, 16} {
		stepBoth(t, w)
	}
}

// TestCloseFallsBackToSerial checks that a closed pool degrades to the
// serial engine instead of deadlocking, and that Close is idempotent.
func TestCloseFallsBackToSerial(t *testing.T) {
	p, err := New(Config{N: 8, K: 2, RPrime: 2, Workers: 4}, rrFactory(demux.PerInput))
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	cells := []cell.Cell{cell.New(0, 0, cell.Flow{In: 1, Out: 2}, 0)}
	deps, err := p.Step(0, cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	for slot := cell.Time(1); !p.Drained(); slot++ {
		if deps, err = p.Step(slot, nil, deps[:0]); err != nil {
			t.Fatal(err)
		}
	}
	if p.Departed() != 1 {
		t.Fatalf("departed %d cells after Close, want 1", p.Departed())
	}
}

// TestParallelRefereeStillCatchesOverclaimedBuffer ensures the sharded
// stage-3 audit reports the same violation the serial engine does.
func TestParallelRefereeStillCatchesOverclaimedBuffer(t *testing.T) {
	mk := func(workers int) error {
		p, err := New(Config{N: 8, K: 2, RPrime: 2, Workers: workers},
			func(e demux.Env) (demux.Algorithm, error) { return &overclaimAlg{}, nil })
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		_, err = p.Step(0, nil, nil)
		return err
	}
	serialErr, parErr := mk(0), mk(4)
	if serialErr == nil || parErr == nil {
		t.Fatalf("overclaimed buffer must error (serial %v, parallel %v)", serialErr, parErr)
	}
	if serialErr.Error() != parErr.Error() {
		t.Errorf("violation diverges:\nserial:   %v\nparallel: %v", serialErr, parErr)
	}
}

// overclaimAlg reports phantom buffered cells at every input; the audit
// must flag input 0 first in both engines.
type overclaimAlg struct{}

func (*overclaimAlg) Name() string                                      { return "overclaim" }
func (*overclaimAlg) Slot(cell.Time, []cell.Cell) ([]demux.Send, error) { return nil, nil }
func (*overclaimAlg) Buffered(cell.Port) int                            { return 1 }
