package mux

import (
	"testing"

	"ppsim/internal/cell"
)

// BenchmarkAblationParked is the DESIGN.md §5 ablation of the parked-cell
// structure: Buffer's one (In, FlowSeq) table per output against the
// per-flow sorted slices of refBuffer. The churn is on/off-shaped: each
// step a fresh input's burst reaches the output with its head cell late,
// so the rest of the burst parks; the head of the burst from `standing`
// steps ago then lands and that burst drains. Inputs rotate over all n
// ports, so flows never stop appearing, as at the headline geometry.
func BenchmarkAblationParked(b *testing.B) {
	const n, burst, standing = 1024, 8, 16
	run := func(b *testing.B, push func(cell.Cell), pop func() (cell.Cell, bool)) {
		flowSeq := make([]uint64, n)
		var seq uint64
		step := func(i int) {
			in := cell.Port(i % n)
			f := cell.Flow{In: in, Out: 0}
			for k := uint64(1); k < burst; k++ {
				push(cell.New(seq+k, flowSeq[in]+k, f, 0))
			}
			seq += burst
			if i < standing {
				return
			}
			old := cell.Port((i - standing) % n)
			push(cell.New(seq-burst*(standing+1), flowSeq[old], cell.Flow{In: old, Out: 0}, 0))
			flowSeq[old] += burst
			for k := 0; k < burst; k++ {
				if _, ok := pop(); !ok {
					b.Fatalf("step %d: burst of input %d stalled after %d cells", i, old, k)
				}
			}
		}
		for i := 0; i < 2*n; i++ {
			step(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(2*n + i)
		}
	}
	b.Run("table", func(b *testing.B) {
		buf, push := testBuffer(n)
		run(b, push, buf.PopEmittable)
	})
	b.Run("per-flow-slices", func(b *testing.B) {
		m := newRefBuffer(n)
		run(b, m.push, m.pop)
	})
}
