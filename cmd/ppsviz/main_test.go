package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

func TestRunAllTrafficKinds(t *testing.T) {
	for _, kind := range []string{"steering", "concentration", "bernoulli", "flood"} {
		if err := run(io.Discard, 16, 4, 2, "rr", 4, kind, 0.5, 200, 40, 1); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	for _, alg := range []string{"rr", "perflow-rr", "cpa", "cpa-rotate", "cpa-sets", "stale-cpa", "stale-cpa-randtie", "random", "least-loaded"} {
		if err := run(io.Discard, 8, 4, 2, alg, 2, "concentration", 0.5, 0, 40, 1); err != nil {
			t.Errorf("%s: %v", alg, err)
		}
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	if err := run(io.Discard, 8, 4, 2, "bogus", 2, "concentration", 0.5, 0, 40, 1); err == nil {
		t.Error("unknown algorithm must error")
	}
	if err := run(io.Discard, 8, 4, 2, "rr", 2, "bogus", 0.5, 0, 40, 1); err == nil {
		t.Error("unknown traffic must error")
	}
}

// TestRunGolden holds the two timelines of the package comment to the bytes
// checked into testdata, at the flags' defaults otherwise.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct {
		golden    string
		n, k      int
		alg, kind string
		load      float64
	}{
		{"rr-steering.golden", 32, 4, "rr", "steering", 0.6},
		{"cpa-bernoulli.golden", 16, 8, "cpa", "bernoulli", 0.9},
	} {
		want, err := os.ReadFile("testdata/" + tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := run(&got, tc.n, tc.k, 2, tc.alg, 4, tc.kind, tc.load, 0, 100, 1); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: output differs\n got:\n%s\nwant:\n%s", tc.golden, got.Bytes(), want)
		}
	}
}
