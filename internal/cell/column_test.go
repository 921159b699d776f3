package cell

import "testing"

func TestColumnPageSize(t *testing.T) {
	for _, tc := range []struct{ hint, page int }{
		{0, 4096}, {-3, 4096}, {1, 1}, {2, 2}, {36, 64}, {64, 64}, {4096, 4096}, {1 << 20, 4096},
	} {
		c := NewColumn[uint64](tc.hint)
		c.GrowTo(1)
		if got := len(c.pages[0]); got != tc.page || c.Len() != 1 {
			t.Errorf("hint %d: first page holds %d entries, want %d (Len %d)", tc.hint, got, tc.page, c.Len())
		}
	}
}

func TestColumnPointersSurviveGrowth(t *testing.T) {
	c := NewColumn[uint64](16)
	c.GrowTo(3)
	p := c.At(2)
	*p = 7
	c.GrowTo(1000)
	if c.At(2) != p || *c.At(2) != 7 {
		t.Error("growth moved an entry")
	}
	if c.Len() != 1000 || len(c.pages) != 63 {
		t.Errorf("Len = %d over %d pages, want 1000 over 63 pages of 16", c.Len(), len(c.pages))
	}
	if p := c.Grow(); p != c.At(1000) || *p != 0 || c.Len() != 1001 {
		t.Error("Grow must return the new zeroed last entry")
	}
}

// FuzzColumnAgainstSlice drives a Column with random GrowTo, Grow, At-read
// and At-write ops and checks it against a plain slice: Len follows the
// model, every addressable entry reads what was last written (zero if
// never), every page holds the hinted size, and pointers taken earlier
// still alias their entry after later growth. The hint ranges below one
// page too.
func FuzzColumnAgainstSlice(f *testing.F) {
	f.Add(uint16(0), []byte{0, 10, 1, 3, 2, 3, 9, 0, 200, 1, 3, 7})
	f.Add(uint16(5), []byte{0, 4, 2, 1, 7, 0, 40, 1, 1, 2, 39, 1, 3, 3})
	f.Add(uint16(4096), []byte{0, 255, 0, 255, 2, 254, 3, 0})
	f.Fuzz(func(t *testing.T, hint uint16, ops []byte) {
		c := NewColumn[uint32](int(hint))
		page := 4096
		if hint > 0 && hint < 4096 {
			for page = 1; page < int(hint); page *= 2 {
			}
		}
		var model []uint32
		var ptrs []*uint32 // ptrs[i] was taken from At(i) before later growth
		for k := 0; k+1 < len(ops); k += 2 {
			arg := int(ops[k+1])
			switch ops[k] % 4 {
			case 0: // GrowTo, by up to 255*16 entries, 16 Ki in all
				n := min(len(model)+arg*16, 1<<14)
				c.GrowTo(n)
				for len(model) < n {
					model = append(model, 0)
					ptrs = append(ptrs, nil)
				}
			case 1: // read
				if len(model) == 0 {
					continue
				}
				i := arg * 31 % len(model)
				if got := *c.At(i); got != model[i] {
					t.Fatalf("At(%d) = %d, model %d", i, got, model[i])
				}
			case 2: // write
				if len(model) == 0 {
					continue
				}
				i := arg * 17 % len(model)
				v := uint32(k)<<8 | uint32(arg)
				*c.At(i) = v
				model[i] = v
				ptrs[i] = c.At(i)
			case 3: // Grow
				p := c.Grow()
				model = append(model, 0)
				ptrs = append(ptrs, p)
				if *p != 0 || p != c.At(len(model)-1) {
					t.Fatalf("Grow to %d: entry %d at %p, At gives %p", len(model), *p, p, c.At(len(model)-1))
				}
			}
			if c.Len() != len(model) {
				t.Fatalf("op %d: Len %d, model %d", k/2, c.Len(), len(model))
			}
		}
		for i, pg := range c.pages {
			if len(pg) != page {
				t.Fatalf("page %d holds %d entries, hint %d wants %d", i, len(pg), hint, page)
			}
		}
		for i, want := range model {
			if got := *c.At(i); got != want {
				t.Fatalf("final At(%d) = %d, model %d", i, got, want)
			}
			if ptrs[i] != nil && ptrs[i] != c.At(i) {
				t.Fatalf("entry %d moved", i)
			}
		}
	})
}
