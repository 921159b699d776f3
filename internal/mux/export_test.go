package mux

import "ppsim/internal/cell"

// EmittableLen counts the cells on b's emittable ring by popping them all
// and appending them back in Seq order, which leaves the ring as it was.
func (b *Buffer) EmittableLen() int {
	var refs []cell.Ref
	for b.emittable != 0 {
		refs = append(refs, b.s.RingPop(&b.emittable))
	}
	for _, r := range refs {
		b.s.RingInsertSeq(&b.emittable, r)
	}
	return len(refs)
}
