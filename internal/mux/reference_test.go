package mux

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ppsim/internal/cell"
)

// refBuffer is the per-flow design Buffer replaced, kept as its model: per
// input one FlowSeq-sorted slice of parked cells and one of dropped
// FlowSeqs, and a plain slice of in-order cells scanned for the minimum Seq.
type refBuffer struct {
	next   []uint64
	parked [][]cell.Cell // [In], ascending FlowSeq
	skips  [][]uint64    // [In], ascending
	ready  []cell.Cell
	cells  int // ready + parked
}

func newRefBuffer(n int) *refBuffer {
	return &refBuffer{next: make([]uint64, n), parked: make([][]cell.Cell, n), skips: make([][]uint64, n)}
}

func (m *refBuffer) push(c cell.Cell) {
	m.cells++
	in := c.Flow.In
	if c.FlowSeq == m.next[in] {
		m.ready = append(m.ready, c)
		return
	}
	p := m.parked[in]
	i := sort.Search(len(p), func(i int) bool { return p[i].FlowSeq > c.FlowSeq })
	m.parked[in] = slices.Insert(p, i, c)
}

func (m *refBuffer) skip(in cell.Port, fs uint64) {
	i, _ := slices.BinarySearch(m.skips[in], fs)
	m.skips[in] = slices.Insert(m.skips[in], i, fs)
	m.advance(in)
}

func (m *refBuffer) advance(in cell.Port) {
	for len(m.skips[in]) > 0 && m.skips[in][0] == m.next[in] {
		m.skips[in] = m.skips[in][1:]
		m.next[in]++
	}
	if p := m.parked[in]; len(p) > 0 && p[0].FlowSeq == m.next[in] {
		m.ready = append(m.ready, p[0])
		m.parked[in] = p[1:]
	}
}

func (m *refBuffer) pop() (cell.Cell, bool) {
	if len(m.ready) == 0 {
		return cell.Cell{}, false
	}
	best := 0
	for i := range m.ready {
		if m.ready[i].Seq < m.ready[best].Seq {
			best = i
		}
	}
	c := m.ready[best]
	m.ready = slices.Delete(m.ready, best, best+1)
	m.cells--
	m.next[c.Flow.In] = c.FlowSeq + 1
	m.advance(c.Flow.In)
	return c, true
}

// TestBufferMatchesPerFlowReference drives Buffer and the reference with the
// same seeded interleavings of Push, Skip and PopEmittable over 96 flows.
// Deliveries are reordered within a window, drop reports land anywhere
// around them (out of FlowSeq order, before a successor parks and after),
// drops come in runs, and a third of the flows end in a cell that never
// arrives followed by drops only — records no frontier will ever reach.
func TestBufferMatchesPerFlowReference(t *testing.T) {
	const flows = 96
	type event struct {
		at   float64
		c    cell.Cell
		skip bool
	}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var events []event
		delivered, stranded := 0, 0
		for in := 0; in < flows; in++ {
			f := cell.Flow{In: cell.Port(in), Out: 0}
			length := 1 + rng.Intn(40)
			tail := length
			if rng.Intn(3) == 0 {
				tail = rng.Intn(length)
			}
			dropping := false
			for fs := 0; fs < length; fs++ {
				if fs == tail {
					continue // still in flight when the test ends
				}
				if rng.Intn(4) == 0 {
					dropping = !dropping
				}
				c := cell.New(uint64(fs*flows+in), uint64(fs), f, 0)
				if dropping || fs > tail {
					events = append(events, event{at: float64(fs) + 12*rng.Float64() - 4, c: c, skip: true})
					if fs > tail {
						stranded++
					}
				} else {
					events = append(events, event{at: float64(fs) + 6*rng.Float64(), c: c})
					delivered++
				}
			}
		}
		sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

		b, push := testBuffer(flows)
		m := newRefBuffer(flows)
		popped, idleWithRecords := 0, false
		pop := func() bool {
			got, ok := b.PopEmittable()
			want, wantOK := m.pop()
			if ok != wantOK || got.Seq != want.Seq || got.Flow != want.Flow || got.FlowSeq != want.FlowSeq {
				t.Fatalf("seed %d: pop %d = %v, %v; reference %v, %v", seed, popped, got, ok, want, wantOK)
			}
			if ok {
				popped++
			}
			return ok
		}
		records := func() int {
			if b.drops == nil {
				return 0
			}
			return b.drops.Len()
		}
		check := func(op string) {
			if b.Len() != m.cells {
				t.Fatalf("seed %d: Len = %d after %s, reference holds %d cells", seed, b.Len(), op, m.cells)
			}
			if b.Len() == 0 && records() > 0 {
				idleWithRecords = true
			}
		}
		for _, e := range events {
			if e.skip {
				b.Skip(e.c.Flow, e.c.FlowSeq)
				m.skip(e.c.Flow.In, e.c.FlowSeq)
				check("Skip")
			} else {
				push(e.c)
				m.push(e.c)
				check("Push")
			}
			for n := rng.Intn(3); n > 0; n-- {
				pop()
				check("PopEmittable")
			}
		}
		for pop() {
			check("PopEmittable")
		}
		if popped != delivered || b.Len() != 0 || b.parked.Len() != 0 {
			t.Errorf("seed %d: popped %d of %d delivered cells, Len %d, %d parked", seed, popped, delivered, b.Len(), b.parked.Len())
		}
		if records() != stranded || stranded == 0 || !idleWithRecords {
			t.Errorf("seed %d: %d drop records left, want the %d stranded ones (empty buffer seen holding records: %v)",
				seed, records(), stranded, idleWithRecords)
		}
	}
}
