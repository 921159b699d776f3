package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppsim"
)

// quantiles builds a minimal percentile block with the given rqd tail.
func quantiles(p99, p999 int64) *ppsim.DelayQuantiles {
	return &ppsim.DelayQuantiles{
		RQD: ppsim.Quantiles{N: 100, P99: p99, P999: p999},
	}
}

// TestBenchSchemaPercentilesOmitEmpty pins the backward-compatibility
// contract: a result without a percentile block serializes without the key
// at all (so pre-schema diffs stay byte-stable), one with a block carries
// the nested component quantiles under their documented JSON names, and a
// pre-schema file (no "percentiles" keys anywhere) still unmarshals.
func TestBenchSchemaPercentilesOmitEmpty(t *testing.T) {
	f := benchFile{
		Rev: "t",
		Results: []benchResult{
			{benchCase: benchCase{Name: "old"}},
			{benchCase: benchCase{Name: "new"}, Percentiles: quantiles(7, 12)},
		},
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Results []map[string]json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw.Results[0]["percentiles"]; ok {
		t.Error("result without tail data should omit the percentiles key")
	}
	pb, ok := raw.Results[1]["percentiles"]
	if !ok {
		t.Fatal("result with tail data lost its percentiles key")
	}
	for _, key := range []string{"rqd", "demux_wait", "plane_wait", "reseq_wait", "total_delay", "interdeparture_gap"} {
		if !strings.Contains(string(pb), `"`+key+`"`) {
			t.Errorf("percentile block missing component %q: %s", key, pb)
		}
	}

	var back benchFile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Results[1].Percentiles == nil || back.Results[1].Percentiles.RQD.P99 != 7 {
		t.Errorf("round-trip lost the tail block: %+v", back.Results[1].Percentiles)
	}

	// A baseline written before the field existed must still parse.
	pre := `{"rev":"pr5","results":[{"name":"bursty/n8/k2","slots_per_sec":100}]}`
	var old benchFile
	if err := json.Unmarshal([]byte(pre), &old); err != nil {
		t.Fatalf("pre-schema file no longer parses: %v", err)
	}
	if old.Results[0].Percentiles != nil {
		t.Error("pre-schema file should read as a nil percentile block")
	}
}

// writeBaseline marshals a benchFile into a temp baseline for printDelta.
func writeBaseline(t *testing.T, f benchFile) string {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPrintDeltaTailColumns exercises the delta table: tail columns render
// both sides, an absent baseline block shows an em dash, and the gate flags
// (a) a throughput regression, (b) a cells/sec regression at a flat slot
// rate, (c) a tail regression at p99, (d) one visible only at p999, and (e)
// growth past a zero baseline in either tail column — but not a case that is
// merely slower within the threshold, one slot of quantization noise above a
// zero tail, or a cells/sec drop against a baseline with no cells/sec data
// (pre-schema files must never gate on the new column).
func TestPrintDeltaTailColumns(t *testing.T) {
	base := benchFile{Rev: "base", Results: []benchResult{
		{benchCase: benchCase{Name: "fine"}, SlotsPerSec: 1000, Percentiles: quantiles(10, 20)},
		{benchCase: benchCase{Name: "slow"}, SlotsPerSec: 1000, Percentiles: quantiles(10, 20)},
		{benchCase: benchCase{Name: "cells"}, SlotsPerSec: 1000, CellsPerSec: 4000, Percentiles: quantiles(10, 20)},
		{benchCase: benchCase{Name: "cellsup"}, SlotsPerSec: 1000, CellsPerSec: 4000, Percentiles: quantiles(10, 20)},
		{benchCase: benchCase{Name: "nocells"}, SlotsPerSec: 1000, Percentiles: quantiles(10, 20)},
		{benchCase: benchCase{Name: "tail"}, SlotsPerSec: 1000, Percentiles: quantiles(10, 20)},
		{benchCase: benchCase{Name: "tail999"}, SlotsPerSec: 1000, Percentiles: quantiles(10, 20)},
		{benchCase: benchCase{Name: "zero99"}, SlotsPerSec: 1000, Percentiles: quantiles(0, 20)},
		{benchCase: benchCase{Name: "zero999"}, SlotsPerSec: 1000, Percentiles: quantiles(10, 0)},
		{benchCase: benchCase{Name: "zerook"}, SlotsPerSec: 1000, Percentiles: quantiles(0, 0)},
		{benchCase: benchCase{Name: "notail"}, SlotsPerSec: 1000},
	}}
	cur := benchFile{Rev: "cur", Results: []benchResult{
		{benchCase: benchCase{Name: "fine"}, SlotsPerSec: 950, Percentiles: quantiles(10, 20)},
		{benchCase: benchCase{Name: "slow"}, SlotsPerSec: 500, Percentiles: quantiles(10, 20)},
		{benchCase: benchCase{Name: "cells"}, SlotsPerSec: 1000, CellsPerSec: 2000, Percentiles: quantiles(10, 20)},
		{benchCase: benchCase{Name: "cellsup"}, SlotsPerSec: 1000, CellsPerSec: 8000, Percentiles: quantiles(10, 20)},
		{benchCase: benchCase{Name: "nocells"}, SlotsPerSec: 1000, CellsPerSec: 500, Percentiles: quantiles(10, 20)},
		{benchCase: benchCase{Name: "tail"}, SlotsPerSec: 1000, Percentiles: quantiles(30, 60)},
		{benchCase: benchCase{Name: "tail999"}, SlotsPerSec: 1000, Percentiles: quantiles(10, 60)},
		{benchCase: benchCase{Name: "zero99"}, SlotsPerSec: 1000, Percentiles: quantiles(2, 20)},
		{benchCase: benchCase{Name: "zero999"}, SlotsPerSec: 1000, Percentiles: quantiles(10, 2)},
		{benchCase: benchCase{Name: "zerook"}, SlotsPerSec: 1000, Percentiles: quantiles(1, 1)},
		{benchCase: benchCase{Name: "notail"}, SlotsPerSec: 1000, Percentiles: quantiles(5, 9)},
	}}

	var sb strings.Builder
	flagged, err := printDelta(&sb, writeBaseline(t, base), cur, 10)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if flagged != 6 {
		t.Errorf("flagged = %d, want 6 (slow + cells + tail + tail999 + zero99 + zero999)\n%s", flagged, out)
	}
	for _, want := range []string{
		"| fine | 1000 | 950 | -5.0% | — → 0 | 0.0 → 0.0 | 10 → 10 (+0.0%) | 20 → 20 (+0.0%) |",
		"| slow | 1000 | 500 | -50.0% ⚠ |",
		"| cells | 1000 | 1000 | +0.0% ⚠ | 4000 → 2000 (-50.0%) | 0.0 → 0.0 | 10 → 10 (+0.0%) | 20 → 20 (+0.0%) |",
		"| cellsup | 1000 | 1000 | +0.0% | 4000 → 8000 (+100.0%) | 0.0 → 0.0 | 10 → 10 (+0.0%) | 20 → 20 (+0.0%) |",
		"| nocells | 1000 | 1000 | +0.0% | — → 500 | 0.0 → 0.0 | 10 → 10 (+0.0%) | 20 → 20 (+0.0%) |",
		"| tail | 1000 | 1000 | +0.0% ⚠ | — → 0 | 0.0 → 0.0 | 10 → 30 (+200.0%) | 20 → 60 (+200.0%) |",
		"| tail999 | 1000 | 1000 | +0.0% ⚠ | — → 0 | 0.0 → 0.0 | 10 → 10 (+0.0%) | 20 → 60 (+200.0%) |",
		"| zero99 | 1000 | 1000 | +0.0% ⚠ | — → 0 | 0.0 → 0.0 | — → 2 | 20 → 20 (+0.0%) |",
		"| zero999 | 1000 | 1000 | +0.0% ⚠ | — → 0 | 0.0 → 0.0 | 10 → 10 (+0.0%) | — → 2 |",
		"| zerook | 1000 | 1000 | +0.0% | — → 0 | 0.0 → 0.0 | — → 1 | — → 1 |",
		"| notail | 1000 | 1000 | +0.0% | — → 0 | 0.0 → 0.0 | — → 5 | — → 9 |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("delta table missing %q:\n%s", want, out)
		}
	}

	// gate 0 disables flagging entirely.
	sb.Reset()
	flagged, err = printDelta(&sb, writeBaseline(t, base), cur, 0)
	if err != nil {
		t.Fatal(err)
	}
	if flagged != 0 {
		t.Errorf("gate 0 flagged %d cases, want 0", flagged)
	}
	if strings.Contains(sb.String(), "⚠") {
		t.Error("gate 0 should not mark any row")
	}
}

// TestPrintDeltaZeroDelayBaseline is the regression test for the
// zero-baseline percentile convention: a synthetic baseline whose delay
// quantiles are all zero (a short or perfectly-scheduled run) must render
// its tail columns with the cells/s column's "— →" convention — never a
// division-by-zero artifact — while growth past the zero baseline still
// gates through the more-than-one-slot rule.
func TestPrintDeltaZeroDelayBaseline(t *testing.T) {
	base := benchFile{Rev: "base", Results: []benchResult{
		{benchCase: benchCase{Name: "z"}, SlotsPerSec: 1000, Percentiles: quantiles(0, 0)},
	}}
	cur := benchFile{Rev: "cur", Results: []benchResult{
		{benchCase: benchCase{Name: "z"}, SlotsPerSec: 1000, Percentiles: quantiles(3, 5)},
	}}
	var sb strings.Builder
	flagged, err := printDelta(&sb, writeBaseline(t, base), cur, 10)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if want := "| z | 1000 | 1000 | +0.0% ⚠ | — → 0 | 0.0 → 0.0 | — → 3 | — → 5 |"; !strings.Contains(out, want) {
		t.Errorf("zero-delay baseline row missing %q:\n%s", want, out)
	}
	if flagged != 1 {
		t.Errorf("flagged = %d, want 1 (growth past a zero tail)", flagged)
	}
	for _, artifact := range []string{"NaN", "Inf", "%!"} {
		if strings.Contains(out, artifact) {
			t.Errorf("delta table contains formatting artifact %q:\n%s", artifact, out)
		}
	}
}

// TestPrintDeltaQoSColumns pins the admission columns: they appear only
// when a side carries goodput / on-time figures, policy-free sides render
// an em dash, and a goodput regression never flags — the columns are
// informational, the gate stays on throughput and tails.
func TestPrintDeltaQoSColumns(t *testing.T) {
	base := benchFile{Rev: "base", Results: []benchResult{
		{benchCase: benchCase{Name: "plain"}, SlotsPerSec: 1000},
		{benchCase: benchCase{Name: "qos"}, SlotsPerSec: 1000, Goodput: 0.9, OnTimeFraction: 0.95},
	}}
	cur := benchFile{Rev: "cur", Results: []benchResult{
		{benchCase: benchCase{Name: "plain"}, SlotsPerSec: 1000, Goodput: 0.55, OnTimeFraction: 0.81},
		{benchCase: benchCase{Name: "qos"}, SlotsPerSec: 1000, Goodput: 0.5, OnTimeFraction: 0.8},
	}}
	var sb strings.Builder
	flagged, err := printDelta(&sb, writeBaseline(t, base), cur, 10)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "goodput (base → new) | on-time (base → new) |") {
		t.Errorf("QoS header columns missing:\n%s", out)
	}
	for _, want := range []string{
		"| plain | 1000 | 1000 | +0.0% | — → 0 | 0.0 → 0.0 | — → — | — → — | — → 0.550 | — → 0.810 |",
		"| qos | 1000 | 1000 | +0.0% | — → 0 | 0.0 → 0.0 | — → — | — → — | 0.900 → 0.500 (-44.4%) | 0.950 → 0.800 (-15.8%) |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("QoS table missing %q:\n%s", want, out)
		}
	}
	if flagged != 0 {
		t.Errorf("flagged = %d, want 0 — QoS columns must never gate", flagged)
	}

	// A compare between two policy-free files keeps the legacy eight-column
	// layout: no QoS headers at all.
	oldBase := benchFile{Rev: "oldbase", Results: []benchResult{
		{benchCase: benchCase{Name: "plain"}, SlotsPerSec: 1000},
	}}
	oldCur := benchFile{Rev: "oldcur", Results: []benchResult{
		{benchCase: benchCase{Name: "plain"}, SlotsPerSec: 1100},
	}}
	sb.Reset()
	if _, err := printDelta(&sb, writeBaseline(t, oldBase), oldCur, 10); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "goodput") {
		t.Errorf("policy-free compare grew QoS columns:\n%s", sb.String())
	}
}

// TestMatchFilter pins the comma-separated -filter semantics CI relies on.
func TestMatchFilter(t *testing.T) {
	cases := []struct {
		filter, name string
		want         bool
	}{
		{"", "bursty/n8/k2", true},
		{"bursty/n512", "bursty/n512/k8", true},
		{"bursty/n512,bursty/n1024", "bursty/n1024/k8", true},
		{"bursty/n512,bursty/n1024", "bursty-low-1m/n1024/k8", false},
		{"bursty/n512,bursty/n1024", "uniform/n8/k2", false},
		{",,uniform", "uniform/n8/k2", true},
	}
	for _, c := range cases {
		if got := matchFilter(c.filter, c.name); got != c.want {
			t.Errorf("matchFilter(%q, %q) = %v, want %v", c.filter, c.name, got, c.want)
		}
	}
}

// TestTailRegressed pins the non-positive-baseline convention: percent above
// a positive base, more-than-one-slot above a zero/negative base.
func TestTailRegressed(t *testing.T) {
	cases := []struct {
		base, cur int64
		pct       float64
		want      bool
	}{
		{100, 109, 10, false},
		{100, 111, 10, true},
		{0, 1, 10, false},
		{0, 2, 10, true},
		{-3, -2, 10, false},
		{-3, 0, 10, true},
	}
	for _, c := range cases {
		if got := tailRegressed(c.base, c.cur, c.pct); got != c.want {
			t.Errorf("tailRegressed(%d, %d, %.0f) = %v, want %v", c.base, c.cur, c.pct, got, c.want)
		}
	}
}

// TestRunRecordsPercentiles runs one tiny case end to end and checks the
// measured result carries a populated tail block whose components agree in
// count (every delivered cell contributes one sample to each component),
// plus the engine record: an auto run over a read-ahead (batch) source and an
// idle-invariant algorithm lands on the event core with no degradation.
func TestRunRecordsPercentiles(t *testing.T) {
	c := benchCase{Name: "t", Traffic: "uniform", N: 8, K: 2, RPrime: 2, Slots: 400, Seed: 1}
	res, err := run(c, 0, nil, ppsim.FaultAbort, ppsim.EngineAuto, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := res.Percentiles
	if q == nil || q.RQD.N == 0 {
		t.Fatalf("bench result missing tail block: %+v", q)
	}
	if q.Demux.N != q.RQD.N || q.Plane.N != q.RQD.N || q.Reseq.N != q.RQD.N || q.Total.N != q.RQD.N {
		t.Errorf("component counts disagree: %+v", q)
	}
	if res.Engine != "event" || res.EngineReason != "" {
		t.Errorf("auto run recorded engine %q (%q), want the event core", res.Engine, res.EngineReason)
	}
}

// TestRunRecordsShardGeometry pins the new machine-context fields: a
// stage-parallel run records the resolved worker count and a shard-width
// vector covering every output-port, while a serial run omits both (so
// pre-schema JSON diffs stay stable).
func TestRunRecordsShardGeometry(t *testing.T) {
	c := benchCase{Name: "t", Traffic: "uniform", N: 64, K: 2, RPrime: 2, Slots: 200, Seed: 1}
	par, err := run(c, 4, nil, ppsim.FaultAbort, ppsim.EngineAuto, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if par.WorkersResolved != 4 {
		t.Errorf("WorkersResolved = %d, want 4", par.WorkersResolved)
	}
	total := 0
	for _, w := range par.ShardPorts {
		total += w
	}
	if len(par.ShardPorts) != 4 || total != c.N {
		t.Errorf("ShardPorts = %v, want 4 shards covering %d ports", par.ShardPorts, c.N)
	}
	ser, err := run(c, 0, nil, ppsim.FaultAbort, ppsim.EngineAuto, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ser.WorkersResolved != 0 || ser.ShardPorts != nil {
		t.Errorf("serial run recorded geometry: workers %d, shards %v", ser.WorkersResolved, ser.ShardPorts)
	}
	if ser.Cells != par.Cells || ser.MaxRQD != par.MaxRQD {
		t.Errorf("serial and parallel measurements diverge: %+v vs %+v", ser, par)
	}
}

// TestRunForcedSteppedMatchesEvent pins the CLI-level equivalence the
// committed BENCH_pr7 pair relies on: forcing -engine stepped changes only
// the engine record and the wall-clock figures, never a measurement.
func TestRunForcedSteppedMatchesEvent(t *testing.T) {
	c := benchCase{Name: "t", Traffic: "bursty-low", N: 32, K: 8, RPrime: 2, Slots: 600, Seed: 1}
	stepped, err := run(c, 0, nil, ppsim.FaultAbort, ppsim.EngineStepped, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	event, err := run(c, 0, nil, ppsim.FaultAbort, ppsim.EngineEvent, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stepped.Engine != "stepped" || event.Engine != "event" {
		t.Fatalf("engine records: stepped=%q event=%q", stepped.Engine, event.Engine)
	}
	if stepped.SlotsElided != 0 {
		t.Errorf("stepped run elided %d slots", stepped.SlotsElided)
	}
	if event.SlotsElided == 0 {
		t.Error("event run on mostly-idle traffic elided nothing")
	}
	if stepped.RunSlots != event.RunSlots || stepped.Cells != event.Cells ||
		stepped.MaxRQD != event.MaxRQD || *stepped.Percentiles != *event.Percentiles {
		t.Errorf("measurements diverge:\nstepped: %+v\nevent:   %+v", stepped, event)
	}
}
