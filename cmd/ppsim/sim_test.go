package main

import (
	"io"
	"strings"
	"testing"

	"ppsim"
)

func TestBuildTrafficKinds(t *testing.T) {
	cfg := ppsim.Config{N: 8, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "rr"}}
	for _, kind := range strings.Split(trafficKinds, ", ") {
		s := switchFlags{kind: kind, load: 0.5, seed: 1, slots: 500}
		src, err := s.source(cfg)
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if src == nil {
			t.Errorf("%s: nil source", kind)
		}
	}
	if _, err := (&switchFlags{kind: "bogus"}).source(cfg); err == nil {
		t.Error("unknown kind must error")
	}
	// A one-plane switch has no plane 1: the adversary steers plane 0.
	one := ppsim.Config{N: 4, K: 1, RPrime: 1, Algorithm: ppsim.Algorithm{Name: "rr"}}
	if _, err := (&switchFlags{kind: "steering", seed: 1}).source(one); err != nil {
		t.Errorf("steering on K=1: %v", err)
	}
}

func TestBuildTrafficRunsEndToEnd(t *testing.T) {
	cfg := ppsim.Config{N: 8, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "rr"}}
	src, err := (&switchFlags{kind: "steering", load: 0.5, seed: 1, slots: 500}).source(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ppsim.Run(cfg, src, ppsim.Options{Horizon: 4000, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MaxRQD < 7 {
		t.Errorf("steering traffic through the CLI path should concentrate: RQD %d", res.Report.MaxRQD)
	}
}

// TestValidateStride pins the parse-time rejection of coercible strides:
// the series layer silently treats stride < 1 as 1, so the CLI must refuse
// them before a run starts, with a usage error.
func TestValidateStride(t *testing.T) {
	for _, bad := range []int64{0, -1, -64} {
		if err := validateStride(bad); err == nil {
			t.Errorf("stride %d must be rejected", bad)
		}
	}
	for _, good := range []int64{1, 7, 1 << 20} {
		if err := validateStride(good); err != nil {
			t.Errorf("stride %d rejected: %v", good, err)
		}
	}
	var stderr strings.Builder
	if code := run([]string{"sim", "-stride", "0"}, io.Discard, &stderr); code != 2 {
		t.Errorf("sim -stride 0 exited %d, want 2", code)
	}
	if want := "ppsim sim: -stride must be >= 1, got 0\nUsage of ppsim sim:\n"; !strings.HasPrefix(stderr.String(), want) {
		t.Errorf("sim -stride 0 stderr starts %.80q, want %q", stderr.String(), want)
	}
}

// TestLoadOutsideUnitRejected: every kind that reads -load refuses one
// outside [0,1] with a single error line and exit 2. NaN is among them: it
// passes any `< 0 || > 1` check, and bernoulli then sent a cell on every
// input every slot, while 1.5 panicked with a goroutine dump.
func TestLoadOutsideUnitRejected(t *testing.T) {
	for _, kind := range []string{"bernoulli", "hotspot", "onoff", "trickle"} {
		for _, load := range []string{"1.5", "-0.1", "NaN"} {
			var stdout, stderr strings.Builder
			code := run([]string{"sim", "-traffic", kind, "-load", load, "-slots", "100"}, &stdout, &stderr)
			want := "ppsim sim: -load " + load + " outside [0,1]\n"
			if code != 2 || stderr.String() != want || stdout.Len() != 0 {
				t.Errorf("sim -traffic %s -load %s: exit %d, stderr %q, stdout %q; want exit 2, stderr %q",
					kind, load, code, stderr.String(), stdout.String(), want)
			}
		}
	}
}
