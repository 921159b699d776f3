package cell

import "math/bits"

// columnPage is the entry count of a full Column page.
const columnPage = 4096

// Column is a growable array of per-flow records held in fixed-size pages
// that never move: growth appends a page instead of copying the column, so
// a run allocates its final footprint plus at most one partly used page,
// and a pointer into the column stays valid for the column's lifetime.
//
// Pages hold 4096 entries, or the size hint rounded up to a power of two
// when that is smaller: an n-port switch carries at most n² flows, so its
// columns hinted n² never allocate past that on the small geometries that
// dominate sweeps. Entries start at T's zero value. Build a Column with
// NewColumn: the zero Column works, but a page at a time of one entry.
//
// Growth is not safe for concurrent use. At is: goroutines may read and
// write distinct entries concurrently while no Grow or GrowTo runs.
type Column[T any] struct {
	pages [][]T
	shift uint
	mask  int
	n     int // addressable entries
}

// NewColumn returns an empty column whose pages hold min(4096, hint rounded
// up to a power of two) entries; a hint <= 0 means full pages.
func NewColumn[T any](hint int) Column[T] {
	size := columnPage
	if hint > 0 && hint < columnPage {
		size = 1 << bits.Len(uint(hint-1))
	}
	return Column[T]{shift: uint(bits.TrailingZeros(uint(size))), mask: size - 1}
}

// Len reports how many entries are addressable.
func (c *Column[T]) Len() int { return c.n }

// GrowTo makes entries [0, n) addressable, appending zeroed pages as needed.
// Existing entries and pointers to them are unaffected.
func (c *Column[T]) GrowTo(n int) {
	for len(c.pages)<<c.shift < n {
		c.pages = append(c.pages, make([]T, c.mask+1))
	}
	c.n = max(c.n, n)
}

// Grow makes one more entry addressable and returns a pointer to it.
func (c *Column[T]) Grow() *T {
	c.GrowTo(c.n + 1)
	return c.At(c.n - 1)
}

// At returns a pointer to entry i, which must be below Len.
func (c *Column[T]) At(i int) *T { return &c.pages[i>>c.shift][i&c.mask] }
