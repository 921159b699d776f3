package mux

import "ppsim/internal/cell"

// StandaloneBuffer returns the resequencing buffer of a standalone output
// of an n-port switch over store s, for tests outside the package.
func StandaloneBuffer(s *cell.Store, n int) *Buffer { return &NewOutput(0, Eager{}, s, n).buf }

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
