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

// TestFailPlanesIsScheduleShorthand: -fail-planes P,Q is the fault schedule
// fail:P@0,fail:Q@0, byte for byte, under either policy and either core.
// Under abort the fault-aware wrapper keeps the run alive to its report.
// Fresh rr sends every slot-0 cell to plane 0, so the 0,2 rows also pin
// that the planes are down from slot 0, not from slot 1.
func TestFailPlanesIsScheduleShorthand(t *testing.T) {
	for _, planes := range [][2]string{{"1,3", "fail:1@0,fail:3@0"}, {"0,2", "fail:0@0,fail:2@0"}} {
		for _, policy := range []string{"abort", "dropcount"} {
			for _, engine := range []string{"stepped", "event"} {
				base := []string{"sim", "-n", "8", "-k", "4", "-slots", "300", "-fault-policy", policy, "-engine", engine}
				if policy == "abort" {
					base = append(base, "-faultaware")
				}
				var out [2]strings.Builder
				for i, spelling := range [][]string{{"-fail-planes", planes[0]}, {"-faults", planes[1]}} {
					var stderr strings.Builder
					if code := run(append(base[:len(base):len(base)], spelling...), &out[i], &stderr); code != 0 {
						t.Fatalf("%s/%s %v: exit %d: %s", policy, engine, spelling, code, stderr.String())
					}
				}
				if out[0].String() != out[1].String() || out[0].Len() == 0 {
					t.Errorf("%s/%s/%s: -fail-planes stdout differs from -faults:\n%s\n---\n%s", planes[0], policy, engine, out[0].String(), out[1].String())
				}
			}
		}
	}
}

// TestFailPlanesRejected: the IDs -fail-planes lowers onto the schedule are
// checked by the schedule's one Validate, so a plane outside the switch, a
// repeated plane, and a plane the -faults schedule fails again at a later
// slot are each a single-line usage error.
func TestFailPlanesRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fail-planes", "9"}, "ppsim sim: faults: event fail plane 9 outside [0, 8)\n"},
		{[]string{"-fail-planes", "1,1"}, "ppsim sim: faults: plane 1 has two events at slot 0\n"},
		{[]string{"-fail-planes", "0", "-faults", "fail:0@50"}, "ppsim sim: faults: plane 0: consecutive fail events at slots 0 and 50\n"},
		{[]string{"-fail-planes", "1,x"}, "ppsim sim: -fail-planes: \"x\" is not a plane ID\n"},
	} {
		var stdout, stderr strings.Builder
		code := run(append([]string{"sim", "-slots", "100"}, tc.args...), &stdout, &stderr)
		if code != 2 || stderr.String() != tc.want || stdout.Len() != 0 {
			t.Errorf("sim %v: exit %d, stderr %q, stdout %q; want exit 2, stderr %q", tc.args, code, stderr.String(), stdout.String(), tc.want)
		}
	}
}

// TestFlagsOutOfRangeRejected: a flag value no run can honour is a
// single-line usage error before anything runs. viz -width 0 used to divide
// by zero, bounds -u -1 printed negative bounds, bounds -d -1 silently
// became r', and sim -workers -2 exited 1 as a failed run.
func TestFlagsOutOfRangeRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"viz", "-width", "0"}, "ppsim viz: -width 0 must be >= 1\n"},
		{[]string{"viz", "-width", "-3"}, "ppsim viz: -width -3 must be >= 1\n"},
		{[]string{"bounds", "-u", "-1"}, "ppsim bounds: -u -1 must be >= 0\n"},
		{[]string{"bounds", "-d", "-1"}, "ppsim bounds: -d -1 must be >= 0 (0 uses r')\n"},
		{[]string{"sim", "-workers", "-2"}, "ppsim sim: -workers -2 must be -1 (auto), 0 (serial) or positive\n"},
	} {
		var stdout, stderr strings.Builder
		code := run(tc.args, &stdout, &stderr)
		if code != 2 || stderr.String() != tc.want || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 2, stderr %q", tc.args, code, stderr.String(), stdout.String(), tc.want)
		}
	}
}

// TestSlotsBelowOneRejected: a traffic horizon below one slot is a
// single-line usage error wherever a subcommand generates traffic, where it
// used to run an empty simulation and exit 0. viz keeps -slots 0 as "pick
// 400" and refuses only negative values.
func TestSlotsBelowOneRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"sim", "-slots", "-5"}, "ppsim sim: -slots -5 must be >= 1\n"},
		{[]string{"sim", "-slots", "0"}, "ppsim sim: -slots 0 must be >= 1\n"},
		{[]string{"trace", "-gen", "bernoulli", "-slots", "-3"}, "ppsim trace: -slots -3 must be >= 1\n"},
		{[]string{"diag", "-series", "-slots", "-3"}, "ppsim diag: -slots -3 must be >= 1\n"},
		{[]string{"diag", "-percentiles", "-slots", "0"}, "ppsim diag: -slots 0 must be >= 1\n"},
		{[]string{"viz", "-slots", "-1"}, "ppsim viz: -slots -1 must be >= 0 (0 picks 400)\n"},
	} {
		var stdout, stderr strings.Builder
		code := run(tc.args, &stdout, &stderr)
		if code != 2 || stderr.String() != tc.want || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 2, stderr %q", tc.args, code, stderr.String(), stdout.String(), tc.want)
		}
	}
}
