package traffic

import (
	"encoding/json"
	"testing"

	"ppsim/internal/cell"
)

// FuzzTraceJSON exercises the trace decoder with arbitrary bytes: it must
// either reject the input or produce a trace that re-encodes canonically
// and round-trips.
func FuzzTraceJSON(f *testing.F) {
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"t":0,"in":1,"out":2}]`))
	f.Add([]byte(`[{"t":3,"in":0,"out":0},{"t":3,"in":1,"out":0}]`))
	f.Add([]byte(`[{"t":-1,"in":0,"out":0}]`))
	f.Add([]byte(`{"garbage":true}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Trace
		if err := json.Unmarshal(data, &tr); err != nil {
			return // rejection is fine
		}
		enc, err := json.Marshal(&tr)
		if err != nil {
			t.Fatalf("accepted trace failed to encode: %v", err)
		}
		var back Trace
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("canonical encoding failed to decode: %v", err)
		}
		if !tr.Equal(&back) {
			t.Fatal("round-trip changed the trace")
		}
	})
}

// FuzzValidatorConsistency feeds arbitrary arrival patterns and checks the
// incremental validator against the brute-force window scan.
func FuzzValidatorConsistency(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{255, 0, 255, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 4
		tr := NewTrace()
		for i, b := range data {
			if i >= 48 {
				break
			}
			slot := cell.Time(b % 12)
			in := cell.Port(int(b/12) % n)
			out := cell.Port(int(b/48) % n)
			tr.Add(slot, in, out) // collisions silently skipped
		}
		if tr.End() == 0 {
			return
		}
		got, err := MeasureSource(n, tr)
		if err != nil {
			t.Fatal(err)
		}
		// The largest window excess over any tau must equal the
		// incremental measurement.
		var want int64
		for tau := cell.Time(1); tau <= tr.End(); tau++ {
			x, err := WindowBurstiness(n, tr, tau)
			if err != nil {
				t.Fatal(err)
			}
			if x > want {
				want = x
			}
		}
		// WindowBurstiness only scans output-side windows; the validator
		// also covers the input side, so it can only be larger.
		if got < want {
			t.Fatalf("validator B=%d below output-side window max %d", got, want)
		}
	})
}

// FuzzSpanFeed decodes (generator row, seed, horizon, op sequence) and holds
// the feed against a slot-by-slot twin (checkFeedOps); the generator table
// under one mixed op pattern is the seed corpus, which is all `go test`
// replays.
func FuzzSpanFeed(f *testing.F) {
	cases := batchTwinCases()
	for i := range cases {
		f.Add(uint8(i), int64(i), uint16(300), []byte{opJump, opPeek, opStep, opHop + 5*numOps, opJump, opStep, opStep, opHop + 40*numOps})
	}
	f.Fuzz(func(t *testing.T, row uint8, seed int64, end uint16, ops []byte) {
		checkFeedOps(t, cases[int(row)%len(cases)], seed, 1+cell.Time(end%2048), ops)
	})
}
