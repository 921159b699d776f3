package ppsim_test

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"ppsim"
)

// TestDocsNameLiveOptions fails when README.md or DESIGN.md names an
// Options.<Field> that Options does not have: a knob deleted from the code
// must leave the prose too.
func TestDocsNameLiveOptions(t *testing.T) {
	opts := reflect.TypeOf(ppsim.Options{})
	ref := regexp.MustCompile(`\bOptions\.([A-Z]\w*)`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllSubmatch(text, -1) {
			if _, ok := opts.FieldByName(string(m[1])); !ok {
				t.Errorf("%s names Options.%s, which is not a field of Options", doc, m[1])
			}
		}
	}
}

func TestRunQuickstart(t *testing.T) {
	cfg := ppsim.Config{
		N: 8, K: 4, RPrime: 2,
		Algorithm: ppsim.Algorithm{Name: "rr"},
	}
	res, err := ppsim.Run(cfg, ppsim.NewBernoulli(8, 0.5, 500, 1), ppsim.Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Cells == 0 {
		t.Fatal("no cells switched")
	}
	if res.AlgorithmName != "rr" {
		t.Errorf("AlgorithmName = %q", res.AlgorithmName)
	}
	if res.Report.MaxRQD < 0 {
		t.Errorf("MaxRQD = %d; execution maximum cannot be negative for drained runs with shared arrivals", res.Report.MaxRQD)
	}
}

func TestCPAZeroRQDPublicAPI(t *testing.T) {
	// The Iyer-Awadallah-McKeown baseline (E11): S >= 2 gives exact FCFS
	// OQ mimicking.
	cfg := ppsim.Config{
		N: 8, K: 8, RPrime: 4, // S = 2
		Algorithm: ppsim.Algorithm{Name: "cpa"},
	}
	src := ppsim.Shape(8, 0, ppsim.NewBernoulli(8, 0.6, 400, 7))
	res, err := ppsim.Run(cfg, src, ppsim.Options{Horizon: 3000, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MaxRQD != 0 {
		t.Errorf("CPA MaxRQD = %d, want 0 at S=2", res.Report.MaxRQD)
	}
	if res.Burstiness != 0 {
		t.Errorf("shaped traffic burstiness = %d, want 0", res.Burstiness)
	}
}

func TestCompare(t *testing.T) {
	cfg := ppsim.Config{N: 6, K: 6, RPrime: 2}
	tr, err := ppsim.ConcentrationTrace(6, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ppsim.Compare(cfg, []ppsim.Algorithm{
		{Name: "rr"},
		{Name: "cpa"},
	}, tr, ppsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res["cpa"].Report.MaxRQD != 0 {
		t.Errorf("cpa MaxRQD = %d", res["cpa"].Report.MaxRQD)
	}
	if res["rr"].Report.MaxRQD <= res["cpa"].Report.MaxRQD {
		t.Errorf("rr should lose to cpa under concentration: %d vs %d",
			res["rr"].Report.MaxRQD, res["cpa"].Report.MaxRQD)
	}
}

func TestValidateRejectsNonsense(t *testing.T) {
	bad := []ppsim.Config{
		{N: 0, K: 1, RPrime: 1, Algorithm: ppsim.Algorithm{Name: "rr"}},
		{N: 4, K: 2, RPrime: 1, Algorithm: ppsim.Algorithm{Name: "no-such"}},
		{N: 4, K: 2, RPrime: 1},
		{N: 4, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "partition", D: 3}},
		{N: 4, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "ftd", H: 0.5}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	if err := (ppsim.Config{N: 4, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "cpa"}}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestAlgorithmNamesListsRegistry(t *testing.T) {
	names := ppsim.AlgorithmNames()
	if len(names) != 13 {
		t.Errorf("registry has %d names: %v", len(names), names)
	}
	for _, n := range names {
		cfg := ppsim.Config{N: 8, K: 8, RPrime: 2, Algorithm: ppsim.Algorithm{Name: n, D: 2, U: 2, H: 2, Capacity: -1}}
		if n == "buffered-cpa" || n == "buffered-rr" {
			cfg.BufferCap = -1
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("registered algorithm %q does not construct: %v", n, err)
		}
	}
	unknown := ppsim.Algorithm{Name: "bogus"}
	if err := (ppsim.Config{N: 4, K: 2, RPrime: 1, Algorithm: unknown}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("unknown algorithm error missing: %v", err)
	}
}

func TestInputBuffered(t *testing.T) {
	cases := map[ppsim.Algorithm]bool{
		{Name: "rr"}:                 false,
		{Name: "cpa"}:                false,
		{Name: "buffered-rr"}:        true,
		{Name: "buffered-cpa", U: 3}: true,
		{Name: "buffered-cpa", U: 0}: false,
	}
	for a, want := range cases {
		if got := a.InputBuffered(); got != want {
			t.Errorf("%v.InputBuffered() = %v, want %v", a, got, want)
		}
	}
}

func TestBufferedTheorem12PublicAPI(t *testing.T) {
	// Input-buffered u-RT CPA at S=2: relative queuing delay <= u
	// (Theorem 12), under both random and adversarial traffic.
	const u = 4
	cfg := ppsim.Config{
		N: 8, K: 8, RPrime: 4, BufferCap: u + 1,
		Algorithm: ppsim.Algorithm{Name: "buffered-cpa", U: u},
	}
	src := ppsim.Shape(8, 2, ppsim.NewBernoulli(8, 0.6, 400, 3))
	res, err := ppsim.Run(cfg, src, ppsim.Options{Horizon: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MaxRQD > u {
		t.Errorf("buffered-cpa MaxRQD = %d, want <= u = %d", res.Report.MaxRQD, u)
	}
}

func TestHerdingTraceSteeringTracePublicAPI(t *testing.T) {
	cfg := ppsim.Config{N: 8, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "rr"}}
	tr, err := ppsim.SteeringTrace(cfg, ppsim.AllInputs(8), 0, 1, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ppsim.Run(cfg, tr, ppsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := ppsim.Time(7); res.Report.MaxRQD < want {
		t.Errorf("steered MaxRQD = %d, want >= %d", res.Report.MaxRQD, want)
	}

	ht, err := ppsim.HerdingTrace(8, 0, 3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ht.Count() != 14 {
		t.Errorf("herding trace count = %d", ht.Count())
	}
}

func TestPartitionInputs(t *testing.T) {
	ins := ppsim.PartitionInputs(8, 4, 2, 3) // plane 3 -> group 1
	want := []ppsim.Port{1, 3, 5, 7}
	if len(ins) != len(want) {
		t.Fatalf("PartitionInputs = %v", ins)
	}
	for i := range want {
		if ins[i] != want[i] {
			t.Errorf("PartitionInputs = %v, want %v", ins, want)
		}
	}
}

func TestWindowBurstinessPublicAPI(t *testing.T) {
	fl := ppsim.NewFlood(4, 0, 50)
	small, err := ppsim.WindowBurstiness(4, fl, 2)
	if err != nil {
		t.Fatal(err)
	}
	big, err := ppsim.WindowBurstiness(4, fl, 40)
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Errorf("flood window excess must grow: tau=2 -> %d, tau=40 -> %d", small, big)
	}
}
