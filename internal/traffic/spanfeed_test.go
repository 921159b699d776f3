package traffic

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ppsim/internal/cell"
)

// Feed ops: the alphabet FuzzSpanFeed decodes and the tests spell their
// fixed consumption patterns in.
const (
	opStep = iota // consume the cursor slot
	opPeek        // NextArrival, no consumption
	opJump        // NextArrival, then consume the answer: the event core's idle jump
	opHop         // consume a later slot unasked, skipping only silent ones
	numOps
)

// checkFeedOps drives a SpanFeed over tc's source on [0, end) by ops and
// holds every answer against a slot-by-slot twin: SlotArrivals returns
// exactly the twin's slot and NextArrival exactly the twin's next non-empty
// slot or cell.None — arrivals and silence both exact. Once ops runs out the
// remaining slots are stepped, so every run covers the whole horizon.
func checkFeedOps(t *testing.T, tc twinCase, seed int64, end cell.Time, ops []byte) {
	t.Helper()
	want := steppedTwin(tc.mk(seed), end)
	next := make([]cell.Time, end+1) // first non-empty slot >= s
	next[end] = cell.None
	for s := end - 1; s >= 0; s-- {
		next[s] = next[s+1]
		if len(want[s]) > 0 {
			next[s] = s
		}
	}

	feed := NewSpanFeed(tc.mk(seed), end)
	cur := cell.Time(0) // every slot below it is consumed
	peek := func() cell.Time {
		na := feed.NextArrival(cur - 1)
		if na != next[cur] {
			t.Fatalf("%s seed %d: NextArrival(%d) = %d, stepped twin says %d", tc.name, seed, cur-1, na, next[cur])
		}
		return na
	}
	consume := func(s cell.Time) {
		if got := feed.SlotArrivals(s); !slices.Equal(got, want[s]) {
			t.Fatalf("%s seed %d: slot %d: feed %+v, stepped twin %+v", tc.name, seed, s, got, want[s])
		}
		cur = s + 1
	}
	for i := 0; cur < end; i++ {
		op := byte(opStep)
		if i < len(ops) {
			op = ops[i]
		}
		switch op % numOps {
		case opStep:
			consume(cur)
		case opPeek:
			peek()
		case opJump:
			if na := peek(); na != cell.None {
				consume(na)
			} else {
				cur = end
			}
		case opHop:
			s := min(cur+cell.Time(op/numOps), end-1)
			if na := next[cur]; na != cell.None && na < s {
				s = na
			}
			consume(s)
		}
	}
	if na := feed.NextArrival(end - 1); na != cell.None {
		t.Fatalf("%s seed %d: NextArrival(%d) = %d past the end", tc.name, seed, end-1, na)
	}
}

// checkFeedPattern runs checkFeedOps over the whole generator table, one
// subtest per row and a few seeds each.
func checkFeedPattern(t *testing.T, end cell.Time, ops func(seed int64) []byte) {
	for _, tc := range batchTwinCases() {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				checkFeedOps(t, tc, seed, end, ops(seed))
			}
		})
	}
}

// TestSpanFeedMatchesDirectSource: consumed slot by slot — the stepped
// core's pattern — the slab view reproduces the per-slot stream.
func TestSpanFeedMatchesDirectSource(t *testing.T) {
	checkFeedPattern(t, 400, func(int64) []byte { return nil })
}

// TestLookaheadAgreesWithLinearScan is the Lookahead contract per bundled
// generator: the event core's peek-then-consume walk visits exactly the
// non-empty slots a slot-by-slot replay of an identical twin visits, with
// identical cells, and reports None afterwards.
func TestLookaheadAgreesWithLinearScan(t *testing.T) {
	checkFeedPattern(t, 400, func(int64) []byte { return bytes.Repeat([]byte{opJump}, 400) })
}

// TestLookaheadInterleavesWithStepping: a NextArrival query between ordinary
// consecutive SlotArrivals calls — a drain phase steps through slots the
// look-ahead already generated — never perturbs the stream.
func TestLookaheadInterleavesWithStepping(t *testing.T) {
	checkFeedPattern(t, 400, func(int64) []byte {
		return bytes.Repeat([]byte{opPeek, opStep, opStep, opStep, opStep, opStep, opStep, opStep}, 58)
	})
}

// TestSpanFeedNextArrivalMatchesSteppedTwin searches random interleavings of
// all four ops over a horizon long enough for the sparse rows' spans to
// stretch; FuzzSpanFeed searches beyond it.
func TestSpanFeedNextArrivalMatchesSteppedTwin(t *testing.T) {
	checkFeedPattern(t, 1500, func(seed int64) []byte {
		ops := make([]byte, 1500)
		rand.New(rand.NewSource(seed*1009 + 17)).Read(ops)
		return ops
	})
}

func ExampleLookahead() {
	src := &CBR{Flows: []cell.Flow{{In: 0, Out: 1}}, Period: 50, Until: 200}
	feed := NewSpanFeed(src, src.End())
	var look Lookahead = feed.Look()
	for after := cell.Time(-1); ; {
		na := look.NextArrival(after)
		if na == cell.None {
			break
		}
		fmt.Println(na, feed.SlotArrivals(na))
		after = na
	}
	// Output:
	// 0 [{0 1 0 0}]
	// 50 [{0 1 50 0}]
	// 100 [{0 1 100 0}]
	// 150 [{0 1 150 0}]
}

// TestSpanFeedPanicsOnSkippedArrivals pins the misuse guards: consuming or
// querying past a slot whose arrivals sit unconsumed in the slab would
// silently lose cells, so it must panic — also when the requested slot lies
// beyond the slab, where a refill used to overwrite them without a word.
func TestSpanFeedPanicsOnSkippedArrivals(t *testing.T) {
	// Spans go 1, 2, 4: after slots 0 and 1 the slab is [1, 3) with slot 2
	// unconsumed.
	for _, tc := range []struct {
		name string
		skip func(f *SpanFeed)
	}{
		{"slot beyond the slab", func(f *SpanFeed) { f.SlotArrivals(7) }},
		{"slot inside the next slab, [3, 7)", func(f *SpanFeed) { f.SlotArrivals(2); f.SlotArrivals(3); f.SlotArrivals(5) }},
		{"NextArrival", func(f *SpanFeed) { f.NextArrival(2) }},
	} {
		f := NewSpanFeed(&Flood{N: 2, Out: 0, Until: cell.None}, 100)
		f.SlotArrivals(0)
		f.SlotArrivals(1)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: skipping unconsumed arrivals did not panic", tc.name)
				}
			}()
			tc.skip(f)
		}()
	}
}

// TestStatefulGeneratorsPanicOnReplayedSlot: a replayed slot would silently
// fork an RNG stream; skipping ahead is allowed.
func TestStatefulGeneratorsPanicOnReplayedSlot(t *testing.T) {
	onoff, err := NewOnOff(4, 2, 2, cell.None, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []BatchSource{NewBernoulli(4, 0.5, cell.None, 1), onoff} {
		src.Arrivals(0, nil)
		src.AppendArrivals(nil, 5, 9)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T: replaying slot 8 did not panic", src)
				}
			}()
			src.Arrivals(8, nil)
		}()
	}
}

// TestSpanFeedSlabSizedOnce pins the slab's allocation: made once, at the
// span controller's target, by the first refill; kept at that capacity by a
// source whose spans settle inside the target; and never made for a feed
// that reads nothing ahead.
func TestSpanFeedSlabSizedOnce(t *testing.T) {
	feed := NewSpanFeed(NewBernoulli(8, 0.4, cell.None, 1), cell.None)
	if feed.slab != nil {
		t.Error("NewSpanFeed allocated the slab; an empty run must stay slab-free")
	}
	feed.SlotArrivals(0)
	if cap(feed.slab) != targetSlabCells {
		t.Errorf("first refill left cap(slab) = %d, want %d", cap(feed.slab), targetSlabCells)
	}
	slot := cell.Time(1)
	for ; slot < 20000; slot++ { // let the span settle
		feed.SlotArrivals(slot)
	}
	if allocs := testing.AllocsPerRun(5000, func() {
		feed.SlotArrivals(slot)
		slot++
	}); allocs != 0 {
		t.Errorf("steady-state refills allocate: %.3f allocs/slot, want 0", allocs)
	}
	if cap(feed.slab) != targetSlabCells {
		t.Errorf("steady state grew the slab to %d", cap(feed.slab))
	}

	pass := NewSpanFeed(opaque{NewBernoulli(8, 0.4, cell.None, 1)}, cell.None)
	pass.SlotArrivals(0)
	empty := NewSpanFeed(NewTrace(), 100)
	if na := empty.NextArrival(-1); na != cell.None {
		t.Errorf("empty trace: NextArrival = %d", na)
	}
	if pass.slab != nil || empty.slab != nil {
		t.Error("a pass-through feed or a feed over an empty trace allocated a slab")
	}
}

// spanCounter counts the AppendArrivals calls a feed makes and the slots
// they pull.
type spanCounter struct {
	BatchSource
	calls int
	slots cell.Time
}

func (c *spanCounter) AppendArrivals(dst []Arrival, from, to cell.Time) []Arrival {
	c.calls++
	c.slots += to - from
	return c.BatchSource.AppendArrivals(dst, from, to)
}

// TestSpanFeedSparseReadAhead guards the sparse end of the span controller:
// at 0.1 cells a slot the spans must still stretch to within a factor two
// of spanMax, so a million slots cost a few hundred batch calls, not a
// refill per slot, however small the slab target is.
func TestSpanFeedSparseReadAhead(t *testing.T) {
	const end = 1_000_000
	src := &spanCounter{BatchSource: &CBR{Flows: []cell.Flow{{In: 0, Out: 1}}, Period: 10, Until: cell.None}}
	feed := NewSpanFeed(src, end)
	cells := 0
	for na := feed.NextArrival(-1); na != cell.None; na = feed.NextArrival(na) {
		cells += len(feed.SlotArrivals(na))
	}
	if cells != end/10 {
		t.Fatalf("fed %d cells, want %d", cells, end/10)
	}
	if limit := 2*end/int(spanMax) + 16; src.calls > limit {
		t.Errorf("%d AppendArrivals calls over %d slots, want <= %d", src.calls, end, limit)
	}
}

// TestSpanFeedStopsAtDrainedRegulator guards the dynamic-End trap: a
// Regulator reports End = None until its backlog drains, so the feed must
// re-read End at every refill — a limit read once would scan the whole
// silent tail of the horizon, a million slots here, one refill at most with
// the re-read.
func TestSpanFeedStopsAtDrainedRegulator(t *testing.T) {
	reg := NewRegulator(4, 0, &Flood{N: 4, Out: 0, Until: 10})
	src := &spanCounter{BatchSource: reg}
	feed := NewSpanFeed(src, 1<<20)
	cells, last := 0, cell.Time(-1)
	for na := feed.NextArrival(-1); na != cell.None; na = feed.NextArrival(na) {
		cells += len(feed.SlotArrivals(na))
		last = na
	}
	if cells != 40 || reg.Backlog() != 0 {
		t.Fatalf("shaped flood delivered %d of 40 cells, backlog %d", cells, reg.Backlog())
	}
	if src.slots > last+1+spanMax {
		t.Errorf("feed pulled %d slots for a stream that drained at slot %d: the scan ran past the regulator's End", src.slots, last)
	}
}
