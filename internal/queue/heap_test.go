package queue

import (
	"math/rand"
	"sort"
	"testing"
)

// key is an int ordered ascending: the element type of the tests' heaps.
type key int

func (a key) Less(b key) bool { return a < b }

func TestHeapOrdersElements(t *testing.T) {
	h := &Heap[key]{}
	rng := rand.New(rand.NewSource(7))
	in := make([]int, 500)
	for i := range in {
		in[i] = rng.Intn(100)
		h.Push(key(in[i]))
	}
	sort.Ints(in)
	for i, want := range in {
		if got := h.Peek(); int(got) != want {
			t.Fatalf("Peek #%d = %d, want %d", i, got, want)
		}
		if got := h.Pop(); int(got) != want {
			t.Fatalf("Pop #%d = %d, want %d", i, got, want)
		}
	}
	if !h.Empty() || h.Len() != 0 {
		t.Errorf("heap not empty after draining: len=%d", h.Len())
	}
}

func TestHeapInterleavedPushPop(t *testing.T) {
	h := &Heap[key]{}
	rng := rand.New(rand.NewSource(3))
	var mirror []int
	for op := 0; op < 5000; op++ {
		if h.Len() == 0 || rng.Intn(3) != 0 {
			v := rng.Intn(1000)
			h.Push(key(v))
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
	for _, f := range []func(*Heap[key]){
		func(h *Heap[key]) { h.Pop() },
		func(h *Heap[key]) { h.Peek() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on empty heap")
				}
			}()
			f(&Heap[key]{})
		}()
	}
}

func TestHeapReset(t *testing.T) {
	var h Heap[key] // the zero value is ready to use
	for i := key(0); i < 10; i++ {
		h.Push(i)
	}
	h.Reset()
	if !h.Empty() {
		t.Fatal("Reset left elements behind")
	}
	h.Push(42)
	if got := h.Pop(); got != 42 {
		t.Errorf("Pop after Reset = %d, want 42", got)
	}
}

// TestHeapSteadyStateAllocs pins the hot-path property the mux relies on:
// once warm, a Push/Pop cycle performs zero heap allocations.
func TestHeapSteadyStateAllocs(t *testing.T) {
	h := &Heap[key]{}
	for i := key(0); i < 64; i++ {
		h.Push(i)
	}
	for !h.Empty() {
		h.Pop()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := key(0); i < 64; i++ {
			h.Push(63 - i)
		}
		for !h.Empty() {
			h.Pop()
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Push/Pop cycle allocates %.1f times, want 0", allocs)
	}
}
