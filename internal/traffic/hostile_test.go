package traffic_test

import (
	"encoding/binary"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/traffic"
)

// FuzzHostileTrace decodes a few arrivals at any slot up to 2^62, on ports
// up to 2N, and holds every consumer of a finite trace to bounded time and
// memory: a run capped at 2^16 slots returns a result or an error, and
// MeasureSource and WindowBurstiness return. WindowBurstiness must equal
// the dense window scan wherever that scan is cheap (a horizon of at most
// 4096 slots). Each arrival is 10 bytes: an 8-byte slot, an input and an
// output.
func FuzzHostileTrace(f *testing.F) {
	arrival := func(slot uint64, in, out byte) []byte {
		return append(binary.LittleEndian.AppendUint64(nil, slot), in, out)
	}
	f.Add(uint8(3), uint8(1), false, arrival(0, 0, 1))
	f.Add(uint8(3), uint8(7), true, append(arrival(5, 0, 1), arrival(5, 1, 1)...))
	f.Add(uint8(3), uint8(2), false, arrival(1<<62, 0, 1))
	f.Add(uint8(1), uint8(1), true, append(arrival(1<<36, 1, 0), arrival(3, 0, 3)...))
	f.Add(uint8(7), uint8(255), false, append(arrival(4095, 9, 2), arrival(4095, 2, 15)...))
	f.Fuzz(func(t *testing.T, nRaw, tauRaw uint8, validate bool, raw []byte) {
		n := 1 + int(nRaw%8)
		tr := traffic.NewTrace()
		for i := 0; i+10 <= len(raw) && i < 40; i += 10 {
			slot := cell.Time(binary.LittleEndian.Uint64(raw[i:]) % (1<<62 + 1))
			tr.Add(slot, cell.Port(int(raw[i+8])%(2*n)), cell.Port(int(raw[i+9])%(2*n))) // collisions skipped
		}
		rr := func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerInput) }
		cfg := fabric.Config{N: n, K: 2, RPrime: 2, CheckInvariants: true}
		if _, err := harness.Run(cfg, rr, tr, harness.Options{MaxSlots: 1 << 16, Validate: validate}); err == nil && tr.End() > 1<<16 {
			t.Fatalf("run of a trace ending at slot %d returned no error under MaxSlots 2^16", tr.End())
		}
		traffic.MeasureSource(n, tr)
		tau := 1 + cell.Time(tauRaw)
		got, err := traffic.WindowBurstiness(n, tr, tau)
		if tr.End() <= 4096 {
			want, werr := traffic.DenseWindowBurstiness(n, tr, tau)
			if got != want || (err == nil) != (werr == nil) {
				t.Fatalf("tau %d: WindowBurstiness %d (%v), dense scan %d (%v)", tau, got, err, want, werr)
			}
		}
	})
}
