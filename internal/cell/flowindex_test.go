package cell

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// flowIndexSizes are the three regimes FuzzFlowIndexAgainstMap covers: a
// dense table, a hashed large switch and an unsized index.
var flowIndexSizes = [...]int{16, 1024, 0}

// FuzzFlowIndexAgainstMap drives an index and a map through the same ID and
// Find calls. Each three input bytes are one call: an op byte (odd = Find)
// and two ports, scaled so a dense n = 16 index also sees negative ports and
// ports past its side, which take the hashed path beside the dense table.
func FuzzFlowIndexAgainstMap(f *testing.F) {
	f.Add(byte(0), []byte{0, 1, 2, 0, 1, 2, 1, 1, 2, 1, 3, 3})
	f.Add(byte(1), []byte{0, 0x80, 0x7f, 1, 0x80, 0x7f, 0, 0x80, 0x7f})
	// A hashed index's per-input memo: inputs that alternate two outputs
	// (every ID replaces the memo), two inputs sharing those outputs, and
	// inputs outside [0, n), which the memo does not cover.
	alternate := []byte{0, 10, 20, 0, 10, 30, 0, 10, 20, 1, 10, 30, 0, 11, 20, 0, 10, 30, 0, 11, 30, 0, 11, 20, 1, 11, 30, 0, 10, 20}
	outside := []byte{0, 0x7f, 20, 0, 0x7f, 30, 0, 0x80, 20, 0, 0x80, 30, 0, 0x7f, 20, 1, 0x80, 20, 0, 0x9c, 20, 0, 0x9c, 30, 0, 0x9c, 20}
	for _, mode := range []byte{1, 2} {
		f.Add(mode, alternate)
		f.Add(mode, outside)
		f.Add(mode, append(append([]byte{}, alternate...), outside...))
	}
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 3*1500) // hundreds of distinct flows: several doublings
	rng.Read(long)
	for mode := range flowIndexSizes {
		f.Add(byte(mode), long)
	}
	f.Fuzz(func(t *testing.T, mode byte, ops []byte) {
		n := flowIndexSizes[int(mode)%len(flowIndexSizes)]
		scale := Port(max(n, 16))
		port := func(b byte) Port { return Port(int8(b)) * scale / 100 }
		x, ref := NewFlowIndex(n), map[Flow]FlowID{}
		for i := 0; i+2 < len(ops); i += 3 {
			fl := Flow{In: port(ops[i+1]), Out: port(ops[i+2])}
			want, seen := ref[fl]
			if ops[i]&1 == 1 {
				if got, ok := x.Find(fl); got != want || ok != seen {
					t.Fatalf("n=%d op %d: Find%v = %d, %v; map says %d, %v", n, i/3, fl, got, ok, want, seen)
				}
				continue
			}
			if !seen {
				want = FlowID(len(ref) + 1)
				ref[fl] = want
			}
			if got := x.ID(fl); got != want {
				t.Fatalf("n=%d op %d: ID%v = %d, want %d", n, i/3, fl, got, want)
			}
		}
		if x.Len() != len(ref) {
			t.Fatalf("n=%d: Len = %d, map holds %d", n, x.Len(), len(ref))
		}
		for fl, want := range ref {
			if got, ok := x.Find(fl); !ok || got != want {
				t.Fatalf("n=%d: after the run Find%v = %d, %v; want %d", n, fl, got, ok, want)
			}
		}
	})
}

// TestFlowIndexFindDoesNotInsert pins Find as a pure read in every regime:
// probing unseen flows mints nothing, and the first ID afterwards is 1.
func TestFlowIndexFindDoesNotInsert(t *testing.T) {
	for _, n := range flowIndexSizes {
		x := NewFlowIndex(n)
		for in := Port(-2); in < 40; in++ {
			for out := Port(-2); out < 40; out++ {
				if id, ok := x.Find(Flow{In: in, Out: out}); ok || id != 0 {
					t.Fatalf("n=%d: Find(%d, %d) on a fresh index = %d, %v", n, in, out, id, ok)
				}
			}
		}
		if x.Len() != 0 {
			t.Fatalf("n=%d: probing minted %d ids", n, x.Len())
		}
		if id := x.ID(Flow{In: 3, Out: 1}); id != 1 {
			t.Fatalf("n=%d: first ID after probing = %d, want 1", n, id)
		}
		if id, ok := x.Find(Flow{In: 1, Out: 3}); ok {
			t.Fatalf("n=%d: Find of the transpose = %d: ports are ordered", n, id)
		}
	}
}

// maxProbe is the longest distance from a held flow's home to its slot.
func maxProbe(x *FlowIndex) int {
	worst, mask := 0, len(x.slots)-1
	for i, id := range x.slots {
		if id != 0 {
			worst = max(worst, (i-x.home(*x.keys.At(int(id) - 1)))&mask)
		}
	}
	return worst
}

// TestFlowIndexConcentration pins the hash on the flows a saturated N = 1024
// run carries: every input to a band of 88 outputs (about the 90 K flows of
// the on/off headline workload), and its transpose. A hash that ignores
// either port piles one of them into 88 homes.
func TestFlowIndexConcentration(t *testing.T) {
	for _, shape := range []struct{ ins, outs int }{{1024, 88}, {88, 1024}} {
		x := NewFlowIndex(1024)
		for in := 0; in < shape.ins; in++ {
			for out := 0; out < shape.outs; out++ {
				x.ID(Flow{In: Port(in), Out: Port(out)})
			}
		}
		if x.held != shape.ins*shape.outs || 2*x.held > len(x.slots) {
			t.Fatalf("%d x %d: %d flows held in %d slots, want all at load <= 1/2", shape.ins, shape.outs, x.held, len(x.slots))
		}
		if got := maxProbe(x); got > 32 {
			t.Errorf("%d inputs x %d outputs: longest probe sequence %d, want <= 32", shape.ins, shape.outs, got)
		}
	}
}

// allocBytes reports the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSizedStamperAllocatesNoFlowTable: an index or Stamper for the N = 1024
// headline geometry, or for N = 16384, allocates nothing per possible flow
// or per input before its first flow. A dense table of 1 M uint32 ids is
// 4 MiB, and an up-front per-input memo at N = 16384 is 128 KiB; either
// fails the guard.
func TestSizedStamperAllocatesNoFlowTable(t *testing.T) {
	const budget = 64 << 10
	for _, n := range []int{1024, 16384} {
		for _, c := range []struct {
			name string
			mk   func()
		}{
			{"NewFlowIndex", func() { NewFlowIndex(n) }},
			{"NewStamperSized", func() { NewStamperSized(n) }},
		} {
			if got := allocBytes(c.mk); got >= budget {
				t.Errorf("%s(%d) allocated %d bytes before its first flow, want < %d", c.name, n, got, budget)
			}
		}
	}
}

// sinkID keeps the benchmarked lookups live.
var sinkID FlowID

// BenchmarkFlowIndex times ID and Find on flows already held: a dense
// N = 32 index with every flow, and a hashed N = 1024 index with the
// 1024 x 88 flows of TestFlowIndexConcentration, visited in shuffled order.
func BenchmarkFlowIndex(b *testing.B) {
	for _, c := range []struct {
		name      string
		n, outs   int
		wantDense bool
	}{
		{"dense/N=32", 32, 32, true},
		{"hashed/N=1024", 1024, 88, false},
	} {
		x := NewFlowIndex(c.n)
		var flows []Flow
		for in := 0; in < c.n; in++ {
			for out := 0; out < c.outs; out++ {
				flows = append(flows, Flow{In: Port(in), Out: Port(out)})
				x.ID(flows[len(flows)-1])
			}
		}
		if (x.held == 0) != c.wantDense {
			b.Fatalf("%s: %d of %d flows hashed", c.name, x.held, x.Len())
		}
		rand.New(rand.NewSource(1)).Shuffle(len(flows), func(i, j int) { flows[i], flows[j] = flows[j], flows[i] })
		b.Run(fmt.Sprintf("%s/ID", c.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkID = x.ID(flows[i%len(flows)])
			}
		})
		b.Run(fmt.Sprintf("%s/Find", c.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkID, _ = x.Find(flows[i%len(flows)])
			}
		})
	}
}
