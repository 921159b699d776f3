package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppsim"
)

// gen builds the traffic s describes for cfg and materializes it, as trace
// -gen does.
func gen(cfg ppsim.Config, s switchFlags) (*ppsim.Trace, error) {
	src, err := s.build(cfg, nil)
	if err != nil {
		return nil, err
	}
	return generate(src, ppsim.Time(s.slots))
}

func TestGenerateKinds(t *testing.T) {
	cfg := ppsim.Config{N: 8, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "rr"}}
	for _, kind := range strings.Split(trafficKinds, ", ") {
		tr, err := gen(cfg, switchFlags{kind: kind, seed: 1, slots: 200, load: 0.5})
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if tr.Count() == 0 {
			t.Errorf("%s produced an empty trace", kind)
		}
	}
	if _, err := gen(cfg, switchFlags{kind: "bogus", seed: 1, slots: 10, load: 0.5}); err == nil {
		t.Error("unknown generator must error")
	}
}

func TestWriteAndStatsRoundTrip(t *testing.T) {
	tr, err := gen(ppsim.Config{N: 8, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "rr"}}, switchFlags{kind: "concentration"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if code := run([]string{"trace", "-gen", "concentration", "-n", "8", "-o", path}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("trace -gen exited %d", code)
	}
	// The file decodes back to an identical trace.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back := ppsim.NewTrace()
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != tr.Count() || back.End() != tr.End() {
		t.Errorf("round trip: %d/%d cells, %d/%d span", back.Count(), tr.Count(), back.End(), tr.End())
	}
	// printStats runs cleanly on the file.
	if err := printStats(io.Discard, path, 8); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replay.json")
	if code := run([]string{"trace", "-gen", "concentration", "-n", "8", "-o", path}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("trace -gen exited %d", code)
	}
	cfg := ppsim.Config{N: 8, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "rr"}}
	tr, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	var s switchFlags
	src, err := s.build(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := runTrace(io.Discard, cfg, src); err != nil {
		t.Fatal(err)
	}
	cfg.Algorithm.Name = "no-such-alg"
	if _, err := s.build(cfg, tr); err == nil {
		t.Error("unknown algorithm must error")
	}
	if _, err := readTrace("/nonexistent.json"); err == nil {
		t.Error("missing file must error")
	}
}

func TestPrintStatsMissingFile(t *testing.T) {
	if err := printStats(io.Discard, "/nonexistent/file.json", 4); err == nil {
		t.Error("missing file must error")
	}
}
