package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

func TestRenderFigure1(t *testing.T) {
	out := Render(5, 2, 2)
	for _, want := range []string{
		"N=5, K=2, r'=2",
		"Clos(m=2, n=1, r=5)",
		"in  0 >[D0 ]",
		"plane 1",
		"[M4 ]> out  4",
		"10 + 10 internal lines",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "plane 2") {
		t.Error("only 2 planes should be drawn")
	}
}

func TestRenderMorePlanesThanPorts(t *testing.T) {
	out := Render(2, 4, 1)
	if !strings.Contains(out, "plane 3") {
		t.Errorf("all 4 planes should be drawn:\n%s", out)
	}
	if !strings.Contains(out, "S = K/r' = 4.00") {
		t.Errorf("speedup missing:\n%s", out)
	}
}

func TestRenderLineCounts(t *testing.T) {
	out := Render(8, 4, 3)
	if !strings.Contains(out, "32 + 32 internal lines, each carrying one cell per 3 slots") {
		t.Errorf("line counts wrong:\n%s", out)
	}
}

// series builds the run sc describes, as diag does, and streams its probe
// series to w.
func series(w io.Writer, sc seriesConfig) error {
	src, err := sc.build(sc.config(), nil)
	if err != nil {
		return err
	}
	return runSeries(w, sc, src)
}

// TestSeriesSteeringDivergence is the acceptance check for series mode: under
// the Theorem 6 steering adversary (N=16, K=4, r'=2, rr) the per-slot
// plane-backlog series must show the steered plane's queue diverging toward
// the N/S = 8 bound while the remaining planes stay near-empty.
func TestSeriesSteeringDivergence(t *testing.T) {
	var sb strings.Builder
	err := series(&sb, seriesConfig{
		switchFlags: switchFlags{n: 16, k: 4, rprime: 2, alg: "rr", kind: "steering", seed: 1, slots: 2000},
		Stride:      1, Format: "csv",
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "series,slot,value" {
		t.Fatalf("bad CSV header %q", lines[0])
	}
	peak := map[string]float64{}
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) != 3 || !strings.HasPrefix(f[0], "plane_backlog[") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(f[2], "%g", &v); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if v > peak[f[0]] {
			peak[f[0]] = v
		}
	}
	if len(peak) != 4 {
		t.Fatalf("expected 4 plane_backlog series, got %v", peak)
	}
	// The adversary steers every cell onto plane 1; with S = K/r' = 2 the
	// concentration drives that plane's backlog to N/S = 8.
	steered, rest := peak["plane_backlog[1]"], 0.0
	for name, v := range peak {
		if name != "plane_backlog[1]" && v > rest {
			rest = v
		}
	}
	if steered < 8 {
		t.Errorf("steered plane peaked at %g, want >= 8 (N/S)", steered)
	}
	if steered < 2*rest {
		t.Errorf("no divergence: steered peak %g vs other planes' %g", steered, rest)
	}
}

// TestSeriesGolden holds the documented series run
// (diag -series -n 16 -k 4 -rprime 2 -alg rr -traffic steering, every other
// flag at its default) to the CSV checked into testdata, byte for byte.
func TestSeriesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/series-rr-steering.golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	var got, stderr strings.Builder
	args := []string{"diag", "-series", "-n", "16", "-k", "4", "-rprime", "2", "-alg", "rr", "-traffic", "steering"}
	if code := run(args, &got, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if got.String() != string(want) {
		t.Errorf("series CSV differs from testdata (%d vs %d bytes)", got.Len(), len(want))
	}
}

// TestSeriesJSONFormat smoke-checks the JSON output path.
func TestSeriesJSONFormat(t *testing.T) {
	var sb strings.Builder
	err := series(&sb, seriesConfig{
		switchFlags: switchFlags{n: 4, k: 2, rprime: 1, alg: "rr", kind: "bernoulli", load: 0.5, seed: 1, slots: 50},
		Stride:      5, Format: "json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "[") || !strings.Contains(sb.String(), `"pps_in_flight"`) {
		t.Errorf("unexpected JSON series output: %.120s", sb.String())
	}
}

// TestValidateSeriesFlags pins the parse-time rejection of knobs the series
// layer would silently coerce: each is a usage error, exit 2.
func TestValidateSeriesFlags(t *testing.T) {
	for _, tc := range []struct {
		stride, cap string
		code        int
	}{
		{"1", "0", 0},
		{"7", "4096", 0},
		{"0", "0", 2},
		{"-3", "0", 2},
		{"1", "-1", 2},
	} {
		var stderr strings.Builder
		code := run([]string{"diag", "-stride", tc.stride, "-cap", tc.cap}, io.Discard, &stderr)
		if code != tc.code {
			t.Errorf("diag -stride %s -cap %s exited %d, want %d: %s", tc.stride, tc.cap, code, tc.code, stderr.String())
		}
		if code == 2 && !strings.Contains(stderr.String(), "Usage of ppsim diag:") {
			t.Errorf("diag -stride %s -cap %s: no usage on stderr", tc.stride, tc.cap)
		}
	}
}

// TestSeriesCapBoundsOutput checks the -cap knob actually bounds the series.
func TestSeriesCapBoundsOutput(t *testing.T) {
	var sb strings.Builder
	err := series(&sb, seriesConfig{
		switchFlags: switchFlags{n: 4, k: 2, rprime: 1, alg: "rr", kind: "bernoulli", load: 0.5, seed: 1, slots: 500},
		Stride:      1, Cap: 16, Format: "csv",
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n")[1:] {
		counts[strings.SplitN(line, ",", 2)[0]]++
	}
	for name, n := range counts {
		if n > 16 {
			t.Errorf("series %s has %d points, -cap 16 should bound it", name, n)
		}
	}
}
