package queue

import "testing"

// maxProbe reports the longest probe sequence any held key needs: its
// distance from the home slot, plus one.
func maxProbe(t *SeqTable) int {
	mask := len(t.slots) - 1
	longest := 0
	for i, s := range t.slots {
		if s.tag == 0 {
			continue
		}
		if d := (i-t.home(s.tag, s.seq))&mask + 1; d > longest {
			longest = d
		}
	}
	return longest
}

// tableKey is a key of the 64-key space the fuzz target and the cluster
// tests share: one byte, port in bits 3-5, seq in bits 0-2.
type tableKey struct {
	port int32
	seq  uint64
}

func keyOf(b byte) tableKey { return tableKey{port: int32(b >> 3 & 7), seq: uint64(b & 7)} }

// sameHome returns count key bytes that all hash to slot `home` of a
// minimum-size table — the raw material for cluster tests.
func sameHome(tb testing.TB, home, count int) []byte {
	t := SeqTable{slots: make([]seqSlot, seqTableMinSlots)}
	var keys []byte
	for b := byte(0); b < 64 && len(keys) < count; b++ {
		if k := keyOf(b); t.home(uint32(k.port)+1, k.seq) == home {
			keys = append(keys, b)
		}
	}
	if len(keys) < count {
		tb.Fatalf("only %d of 64 keys hash to slot %d, need %d", len(keys), home, count)
	}
	return keys
}

func TestSeqTableZeroValue(t *testing.T) {
	var tab SeqTable
	if _, ok := tab.Take(3, 7); ok || tab.Len() != 0 {
		t.Fatal("zero table is not empty")
	}
	if tab.slots != nil {
		t.Error("a miss on the zero table allocated")
	}
	tab.Put(3, 7, 42)
	if len(tab.slots) != seqTableMinSlots {
		t.Errorf("first Put allocated %d slots, want %d", len(tab.slots), seqTableMinSlots)
	}
	if _, ok := tab.Take(7, 3); ok {
		t.Error("Take(7, 3) found the key stored under (3, 7)")
	}
	if v, ok := tab.Take(3, 7); !ok || v != 42 || tab.Len() != 0 {
		t.Errorf("Take(3, 7) = %d, %v (Len %d), want 42, true (Len 0)", v, ok, tab.Len())
	}
}

func TestSeqTablePutReplaces(t *testing.T) {
	var tab SeqTable
	tab.Put(1, 5, 10)
	tab.Put(1, 5, 11)
	if tab.Len() != 1 {
		t.Fatalf("Len = %d after two Puts of one key", tab.Len())
	}
	if v, _ := tab.Take(1, 5); v != 11 {
		t.Errorf("Take = %d, want the second payload 11", v)
	}
}

// A cluster that starts in the last slot wraps to the front of the array;
// deleting its first entry must shift the wrapped entries back across the
// boundary, or they become unreachable from their home slot.
func TestSeqTableBackwardShiftWraps(t *testing.T) {
	var tab SeqTable
	var keys []tableKey
	for i, b := range sameHome(t, seqTableMinSlots-1, 3) {
		keys = append(keys, keyOf(b))
		tab.Put(keys[i].port, keys[i].seq, uint32(i))
	}
	if len(tab.slots) != seqTableMinSlots || tab.slots[0].tag == 0 || tab.slots[1].tag == 0 {
		t.Fatalf("cluster did not wrap: %+v", tab.slots)
	}
	if v, ok := tab.Take(keys[0].port, keys[0].seq); !ok || v != 0 {
		t.Fatalf("Take(first) = %d, %v", v, ok)
	}
	if tab.slots[seqTableMinSlots-1].val != 1 || tab.slots[0].val != 2 || tab.slots[1].tag != 0 {
		t.Errorf("cluster not shifted back across the array end: %+v", tab.slots)
	}
	for i, k := range keys[1:] {
		if v, ok := tab.Take(k.port, k.seq); !ok || v != uint32(i+1) {
			t.Errorf("Take(%v) = %d, %v after the shift", k, v, ok)
		}
	}
}

// An entry whose home lies inside (hole, entry] must stay put: moving it
// would strand it before its home.
func TestSeqTableBackwardShiftKeepsHomedEntry(t *testing.T) {
	var tab SeqTable
	a := sameHome(t, 2, 2) // slots 2, 3
	b := sameHome(t, 4, 1) // slot 4, at home
	for i, kb := range []byte{a[0], a[1], b[0]} {
		tab.Put(keyOf(kb).port, keyOf(kb).seq, uint32(i+1))
	}
	tab.Take(keyOf(a[0]).port, keyOf(a[0]).seq)
	if tab.slots[2].val != 2 || tab.slots[3].tag != 0 || tab.slots[4].val != 3 {
		t.Errorf("slots after Take: %+v", tab.slots)
	}
}

func TestSeqTableGrowthKeepsEveryKey(t *testing.T) {
	var tab SeqTable
	const keys = 1000
	for i := 0; i < keys; i++ {
		tab.Put(int32(i%7), uint64(i), uint32(i))
		if 2*tab.Len() > len(tab.slots) {
			t.Fatalf("load above 1/2: %d keys in %d slots", tab.Len(), len(tab.slots))
		}
	}
	for i := 0; i < keys; i++ {
		if v, ok := tab.Take(int32(i%7), uint64(i)); !ok || v != uint32(i) {
			t.Fatalf("Take(%d) = %d, %v", i, v, ok)
		}
	}
	if tab.Len() != 0 {
		t.Errorf("Len = %d after draining", tab.Len())
	}
	size := len(tab.slots)
	tab.Put(0, 0, 0)
	if len(tab.slots) != size {
		t.Errorf("table shrank or regrew: %d -> %d slots", size, len(tab.slots))
	}
}

// TestSeqTableConcentration pins the hash on the traffic the resequencer
// actually sees. The first shape is the paper's Lemma 4 concentration:
// every input holds a few consecutive FlowSeqs at one output. The second
// is its transpose, a few flows with long parked runs. A hash that ignores
// the port piles the first into four homes, one that ignores the seq piles
// the second — either fails here rather than in a benchmark.
func TestSeqTableConcentration(t *testing.T) {
	for _, shape := range []struct{ ports, seqs int }{{1024, 4}, {4, 1024}} {
		var tab SeqTable
		for p := 0; p < shape.ports; p++ {
			for s := 0; s < shape.seqs; s++ {
				tab.Put(int32(p), uint64(1000+s), 0)
			}
		}
		if 2*tab.Len() != len(tab.slots) {
			t.Fatalf("%d x %d: %d keys in %d slots, want load 1/2", shape.ports, shape.seqs, tab.Len(), len(tab.slots))
		}
		if got := maxProbe(&tab); got > 32 {
			t.Errorf("%d ports x %d seqs: longest probe sequence %d, want <= 32", shape.ports, shape.seqs, got)
		}
	}
}
