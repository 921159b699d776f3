package experiments

import (
	"math/rand"
	"sort"
	"testing"
)

// heapKey is an int ordered ascending: the element type of the tests' heaps.
type heapKey int

func (a heapKey) Less(b heapKey) bool { return a < b }

func TestHeapOrdersElements(t *testing.T) {
	var h minHeap[heapKey]
	rng := rand.New(rand.NewSource(7))
	in := make([]int, 500)
	for i := range in {
		in[i] = rng.Intn(100)
		h.Push(heapKey(in[i]))
	}
	sort.Ints(in)
	for i, want := range in {
		if got := h.Pop(); int(got) != want {
			t.Fatalf("Pop #%d = %d, want %d", i, got, want)
		}
	}
	if !h.Empty() || h.Len() != 0 {
		t.Errorf("heap not empty after draining: len=%d", h.Len())
	}
}

func TestHeapInterleavedPushPop(t *testing.T) {
	var h minHeap[heapKey]
	rng := rand.New(rand.NewSource(3))
	var mirror []int
	for op := 0; op < 5000; op++ {
		if h.Len() == 0 || rng.Intn(3) != 0 {
			v := rng.Intn(1000)
			h.Push(heapKey(v))
			mirror = append(mirror, v)
			sort.Ints(mirror)
		} else {
			if got := h.Pop(); int(got) != mirror[0] {
				t.Fatalf("op %d: Pop = %d, want %d", op, got, mirror[0])
			}
			mirror = mirror[1:]
		}
	}
}

func TestHeapPanicsWhenEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty heap")
		}
	}()
	var h minHeap[heapKey]
	h.Pop()
}

// TestHeapSteadyStateAllocs pins the property the heap exists for: once
// warm, a push/pop cycle performs zero heap allocations.
func TestHeapSteadyStateAllocs(t *testing.T) {
	var h minHeap[heapKey]
	for i := heapKey(0); i < 64; i++ {
		h.Push(i)
	}
	for !h.Empty() {
		h.Pop()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := heapKey(0); i < 64; i++ {
			h.Push(63 - i)
		}
		for !h.Empty() {
			h.Pop()
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state push/pop cycle allocates %.1f times, want 0", allocs)
	}
}
