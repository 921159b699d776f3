package adversary

import (
	"slices"
	"strings"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/traffic"
)

func rrFactory(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerInput) }

func TestSteeringAlignsAllInputs(t *testing.T) {
	const n, k, rp = 8, 4, 2
	cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
	var inputs []cell.Port
	for i := 0; i < n; i++ {
		inputs = append(inputs, cell.Port(i))
	}
	spec := SteeringSpec{
		Fabric:        cfg,
		Factory:       rrFactory,
		Inputs:        inputs,
		Out:           0,
		Plane:         2,
		ScrambleSlots: 30,
		ScrambleSeed:  99,
	}
	tr, err := Steering(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Replay on a fresh switch; the burst is the last n arrivals to Out.
	burstStart := tr.End() - cell.Time(n)
	var burstPlanes []cell.Plane
	res, err := harness.Run(cfg, rrFactory, tr, harness.Options{
		Validate: true,
		OnPPSDepart: func(c cell.Cell) {
			if c.Flow.Out == 0 && c.Arrive >= burstStart {
				burstPlanes = append(burstPlanes, c.Via)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(burstPlanes) != n {
		t.Fatalf("burst departures = %d, want %d", len(burstPlanes), n)
	}
	for i, p := range burstPlanes {
		if p != spec.Plane {
			t.Errorf("burst cell %d went through plane %d, want %d", i, p, spec.Plane)
		}
	}
	want := cell.Time((n - 1) * (rp - 1))
	if res.Report.MaxRQD < want {
		t.Errorf("MaxRQD = %d, want >= %d (Corollary 7 shape)", res.Report.MaxRQD, want)
	}
	// Relative delay jitter also blows up (Theorem 6 claims both).
	if res.Report.RDJ < want/2 {
		t.Errorf("RDJ = %d, expected a concentration-scale jitter", res.Report.RDJ)
	}
}

func TestSteeringBurstlessWithoutScramble(t *testing.T) {
	const n, k, rp = 6, 3, 3
	cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
	var inputs []cell.Port
	for i := 0; i < n; i++ {
		inputs = append(inputs, cell.Port(i))
	}
	tr, err := Steering(SteeringSpec{Fabric: cfg, Factory: rrFactory, Inputs: inputs, Out: 1, Plane: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := traffic.MeasureSource(n, tr)
	if err != nil {
		t.Fatal(err)
	}
	if b != 0 {
		t.Errorf("Theorem 6 traffic must be burstless, measured B = %d", b)
	}
}

func TestSteeringStaticPartitionTheorem8(t *testing.T) {
	// N=8, K=4, r'=2, d=2 -> G=2 groups; plane 3 belongs to group 1,
	// used by inputs 1,3,5,7: |I| = N*d/K = 4.
	const n, k, rp, d = 8, 4, 2, 2
	cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
	factory := func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaticPartition(e, d) }
	inputs := []cell.Port{1, 3, 5, 7}
	tr, err := Steering(SteeringSpec{Fabric: cfg, Factory: factory, Inputs: inputs, Out: 2, Plane: 3, ScrambleSlots: 16, ScrambleSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.Run(cfg, factory, tr, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := cell.Time((len(inputs) - 1) * (rp - 1))
	if res.Report.MaxRQD < want {
		t.Errorf("MaxRQD = %d, want >= %d (Theorem 8 shape: N/S inputs concentrate)", res.Report.MaxRQD, want)
	}
}

// TestPartitionInputsMatchGroup pins PartitionInputs to the algorithm it
// attacks: on every geometry of a small grid it returns exactly the inputs
// whose StaticPartition.Group holds the plane.
func TestPartitionInputsMatchGroup(t *testing.T) {
	for _, n := range []int{1, 5, 8} {
		for _, k := range []int{2, 4, 6} {
			for d := 1; d <= k; d++ {
				if k%d != 0 {
					continue
				}
				var sp *demux.StaticPartition
				cfg := fabric.Config{N: n, K: k, RPrime: 1}
				if _, err := fabric.New(cfg, func(e demux.Env) (demux.Algorithm, error) {
					a, err := demux.NewStaticPartition(e, d)
					sp = a
					return a, err
				}); err != nil {
					t.Fatal(err)
				}
				for plane := cell.Plane(0); int(plane) < k; plane++ {
					var want []cell.Port
					for in := cell.Port(0); int(in) < n; in++ {
						if sp.Group(in) == int(plane)/d {
							want = append(want, in)
						}
					}
					if got := PartitionInputs(n, k, d, plane); !slices.Equal(got, want) {
						t.Errorf("n=%d k=%d d=%d plane %d: PartitionInputs = %v, Group gives %v", n, k, d, plane, got, want)
					}
				}
			}
		}
	}
}

func TestSteeringRejectsNonProber(t *testing.T) {
	cfg := fabric.Config{N: 4, K: 4, RPrime: 2}
	factory := func(e demux.Env) (demux.Algorithm, error) { return demux.NewRandom(e, 1) }
	_, err := Steering(SteeringSpec{Fabric: cfg, Factory: factory, Inputs: []cell.Port{0}, Out: 0, Plane: 0})
	if err == nil || !strings.Contains(err.Error(), "WouldChoose") {
		t.Errorf("randomized algorithm must be rejected: %v", err)
	}
}

func TestSteeringRejectsUnreachablePlane(t *testing.T) {
	// Input 0 is in group 0 (planes 0,1); plane 3 is unreachable for it.
	cfg := fabric.Config{N: 4, K: 4, RPrime: 2}
	factory := func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaticPartition(e, 2) }
	_, err := Steering(SteeringSpec{Fabric: cfg, Factory: factory, Inputs: []cell.Port{0}, Out: 0, Plane: 3})
	if err == nil || !strings.Contains(err.Error(), "align") {
		t.Errorf("unreachable plane must be reported: %v", err)
	}
}

func TestSteeringNeedsInputs(t *testing.T) {
	if _, err := Steering(SteeringSpec{}); err == nil {
		t.Error("empty input set must be rejected")
	}
}

func TestConcentrationTrace(t *testing.T) {
	tr, err := Concentration(8, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 5 || tr.End() != 5 {
		t.Errorf("Count=%d End=%d", tr.Count(), tr.End())
	}
	b, _ := traffic.MeasureSource(8, tr)
	if b != 0 {
		t.Errorf("concentration trace should be burstless, B = %d", b)
	}
	if _, err := Concentration(3, 5, 0); err == nil {
		t.Error("c > n must be rejected")
	}
}

func TestConcentrationReproducesLemma4(t *testing.T) {
	const n, k, rp, c = 8, 4, 3, 6
	cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
	tr, err := Concentration(n, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.Run(cfg, rrFactory, tr, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh round-robin pointers all start at plane 0: full concentration.
	want := cell.Time((c - 1) * (rp - 1))
	if res.Report.MaxRQD != want {
		t.Errorf("MaxRQD = %d, want %d", res.Report.MaxRQD, want)
	}
}

func TestHerdingTrace(t *testing.T) {
	tr, err := Herding(HerdingSpec{N: 8, Out: 1, Slots: 3, PerSlot: 4, LeadIn: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 5+3*4 {
		t.Errorf("Count = %d", tr.Count())
	}
	// Burstiness: 4 cells/slot for 3 slots = 12 - 3 = 9 excess; lead-in
	// adds none.
	b, _ := traffic.MeasureSource(8, tr)
	if b != 9 {
		t.Errorf("burstiness = %d, want 9", b)
	}
}

func TestHerdingValidation(t *testing.T) {
	if _, err := Herding(HerdingSpec{N: 4, PerSlot: 5, Slots: 1}); err == nil {
		t.Error("PerSlot > N must be rejected")
	}
	if _, err := Herding(HerdingSpec{N: 4, PerSlot: 1, Slots: 0}); err == nil {
		t.Error("zero slots must be rejected")
	}
}

func TestScratchErrorPaths(t *testing.T) {
	// Factory errors surface from newScratch via Steering.
	badFactory := func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.Granularity(9)) }
	if _, err := Steering(SteeringSpec{
		Fabric:  fabric.Config{N: 2, K: 2, RPrime: 1},
		Factory: badFactory, Inputs: []cell.Port{0}, Out: 0, Plane: 0,
	}); err == nil {
		t.Error("factory error must propagate")
	}
	// Invalid fabric config too.
	if _, err := Steering(SteeringSpec{
		Fabric:  fabric.Config{N: 0, K: 2, RPrime: 1},
		Factory: rrFactory, Inputs: []cell.Port{0}, Out: 0, Plane: 0,
	}); err == nil {
		t.Error("fabric config error must propagate")
	}
}

func TestSteeringWithScrambleDrainsBeforeBurst(t *testing.T) {
	// The drain phase guarantees every burst cell finds empty planes: the
	// burst arrivals must be the last len(inputs) slots of the trace and
	// contiguous.
	cfg := fabric.Config{N: 6, K: 3, RPrime: 3, CheckInvariants: true}
	inputs := []cell.Port{0, 1, 2, 3, 4, 5}
	tr, err := Steering(SteeringSpec{
		Fabric: cfg, Factory: rrFactory, Inputs: inputs, Out: 2, Plane: 2,
		ScrambleSlots: 10, ScrambleSeed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := tr.End() - cell.Time(len(inputs))
	for i := 0; i < len(inputs); i++ {
		got := tr.Arrivals(start+cell.Time(i), nil)
		if len(got) != 1 || got[0].Out != 2 {
			t.Fatalf("burst slot %d: %v", i, got)
		}
	}
}

func TestHerdingConcentratesStaleCPA(t *testing.T) {
	// u-RT algorithm with a 6-slot blind window; a 3-slot burst of 4
	// cells/slot herds onto one plane. CPA with current information
	// handles the same trace with zero relative delay (S = 2).
	const n, k, rp, u = 8, 4, 2, 6
	cfg := fabric.Config{N: n, K: k, RPrime: rp, CheckInvariants: true}
	tr, err := Herding(HerdingSpec{N: n, Out: 0, Slots: 3, PerSlot: 4, LeadIn: 0})
	if err != nil {
		t.Fatal(err)
	}
	stale, err := harness.Run(cfg,
		func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPA(e, u) },
		tr, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := harness.Run(cfg,
		func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.MinAvail) },
		tr, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Report.MaxRQD != 0 {
		t.Errorf("CPA should absorb the burst at S=2, MaxRQD = %d", fresh.Report.MaxRQD)
	}
	if stale.Report.MaxRQD <= fresh.Report.MaxRQD {
		t.Errorf("stale information must cost delay: stale %d vs cpa %d",
			stale.Report.MaxRQD, fresh.Report.MaxRQD)
	}
}
