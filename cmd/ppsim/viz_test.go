package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

func TestRunAllTrafficKinds(t *testing.T) {
	for _, kind := range strings.Split(trafficKinds, ", ") {
		s := switchFlags{n: 16, k: 4, rprime: 2, alg: "rr", u: 4, kind: kind, load: 0.5, slots: 200, seed: 1}
		if err := timeline(io.Discard, s, 40); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	for _, alg := range []string{"rr", "perflow-rr", "cpa", "cpa-rotate", "cpa-sets", "stale-cpa", "stale-cpa-randtie", "random", "least-loaded"} {
		s := switchFlags{n: 8, k: 4, rprime: 2, alg: alg, u: 2, kind: "concentration", load: 0.5, seed: 1}
		if err := timeline(io.Discard, s, 40); err != nil {
			t.Errorf("%s: %v", alg, err)
		}
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	s := switchFlags{n: 8, k: 4, rprime: 2, alg: "bogus", u: 2, kind: "concentration", load: 0.5, seed: 1}
	if err := timeline(io.Discard, s, 40); err == nil {
		t.Error("unknown algorithm must error")
	}
	s.alg, s.kind = "rr", "bogus"
	if err := timeline(io.Discard, s, 40); err == nil {
		t.Error("unknown traffic must error")
	}
}

// TestRunGolden holds the two documented timelines to the bytes checked
// into testdata, at the flags' defaults otherwise.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"rr-steering.golden", []string{"viz", "-n", "32", "-k", "4", "-alg", "rr", "-traffic", "steering"}},
		{"cpa-bernoulli.golden", []string{"viz", "-n", "16", "-k", "8", "-alg", "cpa", "-traffic", "bernoulli", "-load", "0.9"}},
	} {
		want, err := os.ReadFile("testdata/" + tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		var got, stderr bytes.Buffer
		if code := run(tc.args, &got, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", tc.golden, code, stderr.Bytes())
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: output differs\n got:\n%s\nwant:\n%s", tc.golden, got.Bytes(), want)
		}
	}
}
