package queue

import "testing"

// FuzzFIFOAgainstModel drives the ring buffer with an arbitrary op stream
// and compares against a plain slice model: byte values select push (even)
// or pop/removeAt (odd), with the payload derived from the position.
func FuzzFIFOAgainstModel(f *testing.F) {
	f.Add([]byte{0, 2, 1, 4, 3})
	f.Add([]byte{1, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 7, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		q := New[int](0)
		var model []int
		for i, op := range ops {
			switch {
			case op%2 == 0: // push
				q.Push(i)
				model = append(model, i)
			case len(model) == 0:
				// nothing to pop; verify emptiness is consistent
				if !q.Empty() {
					t.Fatal("queue should be empty")
				}
			case op%4 == 1: // pop head
				want := model[0]
				model = model[1:]
				if got := q.Pop(); got != want {
					t.Fatalf("Pop = %d, want %d", got, want)
				}
			default: // remove at arbitrary index
				idx := int(op) % len(model)
				want := model[idx]
				model = append(model[:idx], model[idx+1:]...)
				if got := q.RemoveAt(idx); got != want {
					t.Fatalf("RemoveAt(%d) = %d, want %d", idx, got, want)
				}
			}
			if q.Len() != len(model) {
				t.Fatalf("Len = %d, model %d", q.Len(), len(model))
			}
			if len(model) > 0 {
				if q.Peek() != model[0] {
					t.Fatalf("Peek = %d, model head %d", q.Peek(), model[0])
				}
				mid := len(model) / 2
				if q.At(mid) != model[mid] {
					t.Fatalf("At(%d) = %d, model %d", mid, q.At(mid), model[mid])
				}
			}
		}
		snap := q.Snapshot()
		if len(snap) != len(model) {
			t.Fatalf("Snapshot len %d, model %d", len(snap), len(model))
		}
		for i := range model {
			if snap[i] != model[i] {
				t.Fatalf("Snapshot[%d] = %d, model %d", i, snap[i], model[i])
			}
		}
	})
}

// FuzzSeqTableAgainstModel drives the (port, seq) table with an arbitrary op
// stream over a 64-key space and compares against a map. The low six bits of
// a byte pick the key (keyOf); the top two pick Put (0, 1), Take (2) or Take
// of a key from a port range Put never uses — a guaranteed miss that must
// probe to an empty slot (3).
func FuzzSeqTableAgainstModel(f *testing.F) {
	const put, take, miss = 0 << 6, 2 << 6, 3 << 6
	ops := func(op byte, keys []byte) []byte {
		out := make([]byte, len(keys))
		for i, k := range keys {
			out[i] = op | k
		}
		return out
	}
	// Five keys sharing a home: the fifth Put doubles the table while the
	// four-entry cluster is standing.
	cluster := sameHome(f, 3, 5)
	f.Add(append(ops(put, cluster), ops(take, cluster)...))
	// A cluster from the last slot wraps; taking its head shifts it back.
	wrap := sameHome(f, seqTableMinSlots-1, 3)
	f.Add(append(ops(put, wrap), ops(take, wrap)...))
	// Take then reinsert the same key.
	f.Add([]byte{put | 9, take | 9, put | 9, miss | 9, take | 9})
	f.Fuzz(func(t *testing.T, stream []byte) {
		var tab SeqTable
		model := map[tableKey]uint32{}
		for i, b := range stream {
			k := keyOf(b)
			switch b >> 6 {
			case 0, 1:
				tab.Put(k.port, k.seq, uint32(i))
				model[k] = uint32(i)
			case 3:
				k.port += 8
				fallthrough
			case 2:
				want, held := model[k]
				delete(model, k)
				if got, ok := tab.Take(k.port, k.seq); ok != held || got != want {
					t.Fatalf("op %d: Take(%v) = %d, %v; model %d, %v", i, k, got, ok, want, held)
				}
			}
			if tab.Len() != len(model) {
				t.Fatalf("op %d: Len = %d, model %d", i, tab.Len(), len(model))
			}
		}
		for k, want := range model {
			if got, ok := tab.Take(k.port, k.seq); !ok || got != want {
				t.Fatalf("drain: Take(%v) = %d, %v; model %d", k, got, ok, want)
			}
		}
		for i, s := range tab.slots {
			if s != (seqSlot{}) {
				t.Fatalf("slot %d not cleared after drain: %+v", i, s)
			}
		}
	})
}
