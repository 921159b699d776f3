package main

import (
	"fmt"
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

// TestSeriesSteeringDivergence is the acceptance check for series mode: under
// the Theorem 6 steering adversary (N=16, K=4, r'=2, rr) the per-slot
// plane-backlog series must show the steered plane's queue diverging toward
// the N/S = 8 bound while the remaining planes stay near-empty.
func TestSeriesSteeringDivergence(t *testing.T) {
	var sb strings.Builder
	err := runSeries(&sb, seriesConfig{
		N: 16, K: 4, RPrime: 2,
		Alg: "rr", Kind: "steering", Seed: 1,
		Slots: 2000, Stride: 1, Format: "csv",
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

// TestSeriesGolden holds the package comment's series run
// (-series -n 16 -k 4 -rprime 2 -alg rr -traffic steering, every other flag
// at its default) to the CSV checked into testdata, byte for byte.
func TestSeriesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/series-rr-steering.golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	err = runSeries(&got, seriesConfig{
		N: 16, K: 4, RPrime: 2,
		Alg: "rr", Kind: "steering", Load: 0.6, Seed: 1,
		Slots: 2000, Stride: 1, Format: "csv",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("series CSV differs from testdata (%d vs %d bytes)", got.Len(), len(want))
	}
}

// TestSeriesJSONFormat smoke-checks the JSON output path.
func TestSeriesJSONFormat(t *testing.T) {
	var sb strings.Builder
	err := runSeries(&sb, seriesConfig{
		N: 4, K: 2, RPrime: 1,
		Alg: "rr", Kind: "bernoulli", Load: 0.5, Seed: 1,
		Slots: 50, Stride: 5, Format: "json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "[") || !strings.Contains(sb.String(), `"pps_in_flight"`) {
		t.Errorf("unexpected JSON series output: %.120s", sb.String())
	}
}

// TestValidateSeriesFlags pins the parse-time rejection of knobs the series
// layer would silently coerce.
func TestValidateSeriesFlags(t *testing.T) {
	for _, tc := range []struct {
		stride, cap int64
		ok          bool
	}{
		{1, 0, true},
		{7, 4096, true},
		{0, 0, false},
		{-3, 0, false},
		{1, -1, false},
	} {
		err := validateSeriesFlags(tc.stride, tc.cap)
		if (err == nil) != tc.ok {
			t.Errorf("validateSeriesFlags(%d, %d) = %v, want ok=%v", tc.stride, tc.cap, err, tc.ok)
		}
	}
}

// TestSeriesCapBoundsOutput checks the -cap knob actually bounds the series.
func TestSeriesCapBoundsOutput(t *testing.T) {
	var sb strings.Builder
	err := runSeries(&sb, seriesConfig{
		N: 4, K: 2, RPrime: 1,
		Alg: "rr", Kind: "bernoulli", Load: 0.5, Seed: 1,
		Slots: 500, Stride: 1, Cap: 16, Format: "csv",
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
