package cell

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func storeCell(seq uint64) Cell {
	return New(seq, seq, Flow{In: Port(seq % 7), Out: Port(seq % 5)}, Time(seq))
}

func TestStorePutAtFree(t *testing.T) {
	s := NewStore(1)
	r := s.Put(0, storeCell(42))
	if got := s.At(r); got.Seq != 42 || got.Flow != storeCell(42).Flow {
		t.Fatalf("At = %v", got)
	}
	if s.Live() != 1 {
		t.Fatalf("Live = %d, want 1", s.Live())
	}
	c := s.Take(r)
	if c.Seq != 42 || s.Live() != 0 {
		t.Fatalf("Take = %v, Live = %d", c, s.Live())
	}
}

func TestStoreReusesFreedSlots(t *testing.T) {
	s := NewStore(1)
	a := s.Put(0, storeCell(1))
	b := s.Put(0, storeCell(2))
	s.Free(a)
	c := s.Put(0, storeCell(3)) // LIFO freelist: must land in a's slot
	if c != a {
		t.Errorf("freed slot not reused: got %v, want %v", c, a)
	}
	if s.At(b).Seq != 2 || s.At(c).Seq != 3 {
		t.Error("reuse clobbered a live cell")
	}
	if len(s.shards[0].cells) != 2 {
		t.Errorf("slab grew to %d despite freelist", len(s.shards[0].cells))
	}
}

// TestStoreReserve: after Reserve(n) each shard takes n cells without
// growing, live cells keep their refs and bodies across a Reserve, and a
// Reserve below the slab's length is a no-op.
func TestStoreReserve(t *testing.T) {
	s := NewStore(2)
	a := s.Put(1, storeCell(1))
	s.Reserve(8)
	if s.At(a).Seq != 1 {
		t.Fatalf("Reserve moved a live cell: %v", s.At(a))
	}
	slabs := [2]*Cell{&s.shards[0].cells[:1][0], &s.shards[1].cells[:1][0]}
	for sh := 0; sh < 2; sh++ {
		for len(s.shards[sh].cells) < 8 {
			s.Put(sh, storeCell(uint64(len(s.shards[sh].cells))))
		}
		if &s.shards[sh].cells[0] != slabs[sh] {
			t.Errorf("shard %d regrew within its reserved 8 cells", sh)
		}
	}
	s.Reserve(2)
	if got := cap(s.shards[0].cells); got < 8 {
		t.Errorf("Reserve(2) shrank shard 0 to %d cells", got)
	}
	if s.At(a).Seq != 1 || s.Live() != 16 {
		t.Errorf("after Reserve: cell %v, Live %d; want Seq 1 and 16 live", s.At(a), s.Live())
	}
}

func TestStoreShardsAreIndependent(t *testing.T) {
	s := NewStore(4)
	refs := make([]Ref, 4)
	for sh := 0; sh < 4; sh++ {
		refs[sh] = s.Put(sh, storeCell(uint64(100+sh)))
	}
	for sh := 0; sh < 4; sh++ {
		if got := s.At(refs[sh]).Seq; got != uint64(100+sh) {
			t.Errorf("shard %d: Seq = %d", sh, got)
		}
	}
	if s.Live() != 4 {
		t.Errorf("Live = %d", s.Live())
	}
	// Refs from distinct shards must be distinct even at equal indices.
	seen := map[Ref]bool{}
	for _, r := range refs {
		if seen[r] {
			t.Fatalf("duplicate ref %v across shards", r)
		}
		seen[r] = true
	}
}

func TestStoreOddShardCounts(t *testing.T) {
	// Non-power-of-two shard counts must round the shard field up.
	for _, shards := range []int{1, 2, 3, 5, 7, 11, 64, 255} {
		s := NewStore(shards)
		var refs []Ref
		for sh := 0; sh < shards; sh++ {
			for i := 0; i < 3; i++ {
				refs = append(refs, s.Put(sh, storeCell(uint64(sh*1000+i))))
			}
		}
		for i, r := range refs {
			sh, j := i/3, i%3
			if got := s.At(r).Seq; got != uint64(sh*1000+j) {
				t.Fatalf("shards=%d ref %d: Seq = %d, want %d", shards, i, got, sh*1000+j)
			}
		}
	}
}

func TestStoreInvalidShardCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewStore(0)
}

// Property: an arbitrary interleaving of puts and frees behaves like a map
// from handle to cell, and Live always matches the model's size.
func TestStoreMatchesMapModel(t *testing.T) {
	prop := func(ops []uint16) bool {
		s := NewStore(3)
		model := map[Ref]uint64{}
		var handles []Ref
		seq := uint64(0)
		for _, op := range ops {
			if op%3 != 0 || len(handles) == 0 { // put
				sh := int(op) % 3
				seq++
				r := s.Put(sh, storeCell(seq))
				if _, dup := model[r]; dup {
					return false // live ref handed out twice
				}
				model[r] = seq
				handles = append(handles, r)
			} else { // free
				i := int(op/3) % len(handles)
				r := handles[i]
				if s.At(r).Seq != model[r] {
					return false
				}
				s.Free(r)
				delete(model, r)
				handles[i] = handles[len(handles)-1]
				handles = handles[:len(handles)-1]
			}
			if s.Live() != len(model) {
				return false
			}
		}
		for _, r := range handles {
			if s.At(r).Seq != model[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestListPopFrontEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	var l List
	NewStore(1).PopFront(&l)
}

func TestRingPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	var g Ring
	NewStore(1).RingPop(&g)
}

// TestPutNeverHandsOutAllOnes: an empty Ring is the tail ref + 1 wrapping
// to 0, so the all-ones ref must never be live. A store whose index space
// is three bits wide hands out indices 0..6 and panics on the eighth Put.
func TestPutNeverHandsOutAllOnes(t *testing.T) {
	s := &Store{idxBits: 3, idxMask: 7, shards: make([]storeShard, 1)}
	for i := 0; i < 7; i++ {
		if r := s.Put(0, storeCell(uint64(i))); uint32(r) == s.idxMask {
			t.Fatalf("Put %d handed out the all-ones index %v", i, r)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Put handed out the all-ones index instead of panicking")
		}
	}()
	s.Put(0, storeCell(7))
}

// FuzzStoreLists drives four Lists and four Rings over a store of 1–4
// shards with random Put, PushBack, PopFront, RingInsert, RingInsertSeq,
// RingPop and Take operations, against a model of one []Ref per list, one
// key-sorted []Ref per ring and one freed-slot stack per shard: every list
// pops in FIFO order, rings 0 and 1 in FlowSeq order and rings 2 and 3 in
// Seq order (a new cell goes before any it ties with), Live counts the
// allocated refs, a Put reuses its shard's most
// recently freed slot (LIFO), and no live cell is clobbered by the links
// threading the lists, the rings and the freelists through the same column.
func FuzzStoreLists(f *testing.F) {
	f.Add(byte(0), []byte{0, 0, 0, 0, 1, 0, 1, 64, 2, 0, 2, 1, 3, 0, 0, 0})
	f.Add(byte(3), []byte{0, 1, 0, 2, 0, 3, 1, 0, 1, 65, 1, 130, 3, 0, 2, 0, 2, 1, 0, 1, 1, 3})
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 2*2000)
	rng.Read(long)
	f.Add(byte(1), long)
	f.Add(byte(2), long)
	// One ring built by an append, a middle insert and a head insert, with a
	// List and the freelist threaded through the same column.
	f.Add(byte(0), []byte{0, 0, 4, 10, 0, 0, 4, 14, 0, 0, 4, 12, 0, 0, 4, 2, 0, 0, 1, 0, 0, 0, 3, 0, 5, 0, 5, 0, 5, 1})
	// The same shapes on a Seq ring beside a FlowSeq ring, the two
	// interleaved, then both drained by pops.
	f.Add(byte(1), []byte{0, 0, 6, 20, 0, 1, 4, 8, 0, 0, 6, 28, 0, 1, 4, 4, 0, 0, 6, 24, 0, 0, 6, 2, 5, 2, 5, 0, 5, 2, 5, 2, 5, 2, 5, 0})
	f.Fuzz(func(t *testing.T, shardsRaw byte, ops []byte) {
		shards := 1 + int(shardsRaw)%4
		s := NewStore(shards)
		var lists [4]List
		var model [4][]Ref
		var rings [4]Ring
		var ringModel [4][]Ref         // ascending FlowSeq (rings 0, 1) or Seq (2, 3)
		freed := make([][]Ref, shards) // per-shard model of the freelist
		seqOf := map[Ref]uint64{}      // every allocated ref
		var loose []Ref                // allocated refs on no list
		seq := uint64(0)
		shardOf := func(r Ref) int { return int(uint32(r) >> s.idxBits) }
		for k := 0; k+1 < len(ops); k += 2 {
			arg := int(ops[k+1])
			switch ops[k] % 7 {
			case 0: // Put
				sh := arg % shards
				seq++
				r := s.Put(sh, storeCell(seq))
				if _, dup := seqOf[r]; dup {
					t.Fatalf("op %d: Put handed out live ref %v", k/2, r)
				}
				if st := freed[sh]; len(st) > 0 {
					if want := st[len(st)-1]; r != want {
						t.Fatalf("op %d: Put = %v, want the last freed slot %v", k/2, r, want)
					}
					freed[sh] = st[:len(st)-1]
				}
				if shardOf(r) != sh {
					t.Fatalf("op %d: Put into shard %d returned %v of shard %d", k/2, sh, r, shardOf(r))
				}
				seqOf[r] = seq
				loose = append(loose, r)
			case 1: // PushBack a loose ref
				if len(loose) == 0 {
					continue
				}
				l, i := arg>>6, arg&63%len(loose)
				r := loose[i]
				loose[i] = loose[len(loose)-1]
				loose = loose[:len(loose)-1]
				s.PushBack(&lists[l], r)
				model[l] = append(model[l], r)
			case 2: // PopFront
				l := arg % len(lists)
				if len(model[l]) == 0 {
					if _, ok := lists[l].Front(); ok {
						t.Fatalf("op %d: empty list %d reports a front", k/2, l)
					}
					continue
				}
				want := model[l][0]
				if r, ok := lists[l].Front(); !ok || r != want {
					t.Fatalf("op %d: list %d Front = %v, %v, want %v", k/2, l, r, ok, want)
				}
				if r := s.PopFront(&lists[l]); r != want {
					t.Fatalf("op %d: list %d PopFront = %v, want %v", k/2, l, r, want)
				}
				model[l] = model[l][1:]
				loose = append(loose, want)
			case 3: // Take a loose ref
				if len(loose) == 0 {
					continue
				}
				i := arg % len(loose)
				r := loose[i]
				loose[i] = loose[len(loose)-1]
				loose = loose[:len(loose)-1]
				if c := s.Take(r); c.Seq != seqOf[r] {
					t.Fatalf("op %d: Take(%v).Seq = %d, want %d", k/2, r, c.Seq, seqOf[r])
				}
				delete(seqOf, r)
				freed[shardOf(r)] = append(freed[shardOf(r)], r)
			case 4, 6: // RingInsert (4) or RingInsertSeq (6) the newest loose ref with key arg>>1
				if len(loose) == 0 {
					continue
				}
				g, key := arg&1, uint64(arg>>1)
				r := loose[len(loose)-1]
				loose = loose[:len(loose)-1]
				keyOf := func(r Ref) uint64 { return s.At(r).FlowSeq }
				if ops[k]%7 == 4 {
					s.At(r).FlowSeq = key
					s.RingInsert(&rings[g], r)
				} else {
					g += 2
					s.At(r).Seq, seqOf[r] = key, key
					s.RingInsertSeq(&rings[g], r)
					keyOf = func(r Ref) uint64 { return s.At(r).Seq }
				}
				m := ringModel[g]
				i := sort.Search(len(m), func(i int) bool { return keyOf(m[i]) >= key })
				ringModel[g] = append(m[:i], append([]Ref{r}, m[i:]...)...)
			case 5: // RingPop
				g := arg % len(rings)
				if len(ringModel[g]) == 0 {
					if _, ok := s.RingFront(&rings[g]); ok || rings[g] != 0 {
						t.Fatalf("op %d: empty ring %d reports a front", k/2, g)
					}
					continue
				}
				want := ringModel[g][0]
				if r, ok := s.RingFront(&rings[g]); !ok || r != want {
					t.Fatalf("op %d: ring %d RingFront = %v, %v, want %v", k/2, g, r, ok, want)
				}
				if r := s.RingPop(&rings[g]); r != want {
					t.Fatalf("op %d: ring %d RingPop = %v, want %v", k/2, g, r, want)
				}
				ringModel[g] = ringModel[g][1:]
				loose = append(loose, want)
			}
			if s.Live() != len(seqOf) {
				t.Fatalf("op %d: Live = %d, want %d", k/2, s.Live(), len(seqOf))
			}
			for l := range lists {
				if lists[l].Len() != len(model[l]) {
					t.Fatalf("op %d: list %d Len = %d, want %d", k/2, l, lists[l].Len(), len(model[l]))
				}
			}
			for g := range rings {
				if (rings[g] == 0) != (len(ringModel[g]) == 0) {
					t.Fatalf("op %d: ring %d = %d, model holds %d", k/2, g, rings[g], len(ringModel[g]))
				}
			}
		}
		for g := range rings {
			for _, want := range ringModel[g] {
				r := s.RingPop(&rings[g])
				if r != want || s.At(r).Seq != seqOf[r] {
					t.Fatalf("drain ring %d: got %v (seq %d), want %v (seq %d)", g, r, s.At(r).Seq, want, seqOf[want])
				}
			}
			if rings[g] != 0 {
				t.Fatalf("drained ring %d is not empty", g)
			}
		}
		for l := range lists {
			for _, want := range model[l] {
				r := s.PopFront(&lists[l])
				if r != want || s.At(r).Seq != seqOf[r] {
					t.Fatalf("drain list %d: got %v (seq %d), want %v (seq %d)", l, r, s.At(r).Seq, want, seqOf[want])
				}
			}
			if lists[l].Len() != 0 {
				t.Fatalf("drained list %d still has Len %d", l, lists[l].Len())
			}
		}
	})
}
