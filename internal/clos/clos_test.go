package clos

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1, 1); err == nil {
		t.Error("m=0 must be rejected")
	}
	if _, err := New(1, 0, 1); err == nil {
		t.Error("n=0 must be rejected")
	}
	if _, err := New(1, 1, 0); err == nil {
		t.Error("r=0 must be rejected")
	}
	c, err := New(3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ports() != 8 {
		t.Errorf("Ports = %d", c.Ports())
	}
}

func TestNonblockingPredicates(t *testing.T) {
	cases := []struct {
		m, n          int
		strict, rearr bool
	}{
		{3, 2, true, true},  // m = 2n-1
		{2, 2, false, true}, // m = n
		{1, 2, false, false},
		{5, 3, true, true},
		{4, 3, false, true},
	}
	for _, tc := range cases {
		c, _ := New(tc.m, tc.n, 4)
		if c.StrictlyNonBlocking() != tc.strict {
			t.Errorf("Clos(%d,%d,4).Strict = %v", tc.m, tc.n, c.StrictlyNonBlocking())
		}
		if c.Rearrangeable() != tc.rearr {
			t.Errorf("Clos(%d,%d,4).Rearrangeable = %v", tc.m, tc.n, c.Rearrangeable())
		}
	}
}

func TestFromPPS(t *testing.T) {
	c, err := FromPPS(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.M != 2 || c.N != 1 || c.R != 5 {
		t.Errorf("FromPPS(5,2) = %+v", c)
	}
	// A PPS is rearrangeable as a Clos network whenever K >= 1 (n = 1);
	// its scalability problem is rate, not connectivity — which is the
	// paper's point.
	if !c.Rearrangeable() {
		t.Error("PPS-as-Clos must be rearrangeable")
	}
}

func TestRouteFullPermutation(t *testing.T) {
	c, _ := New(3, 3, 4) // rearrangeable (m = n)
	perm := rand.New(rand.NewSource(1)).Perm(c.Ports())
	var reqs []Request
	for in, out := range perm {
		reqs = append(reqs, Request{In: in, Out: out})
	}
	assign, err := c.Route(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.verify(reqs, assign); err != nil {
		t.Fatal(err)
	}
}

func TestRouteValidation(t *testing.T) {
	c, _ := New(2, 2, 2)
	if _, err := c.Route([]Request{{In: 9, Out: 0}}); err == nil {
		t.Error("out-of-range input must be rejected")
	}
	if _, err := c.Route([]Request{{In: 0, Out: 0}, {In: 0, Out: 1}}); err == nil {
		t.Error("duplicate input must be rejected")
	}
	if _, err := c.Route([]Request{{In: 0, Out: 0}, {In: 1, Out: 0}}); err == nil {
		t.Error("duplicate output must be rejected")
	}
}

func TestRouteFailsBeyondCapacity(t *testing.T) {
	// m=1 < n=2: two requests from the same ingress switch cannot be
	// routed.
	c, _ := New(1, 2, 2)
	reqs := []Request{{In: 0, Out: 0}, {In: 1, Out: 2}}
	if _, err := c.Route(reqs); err == nil {
		t.Error("over-capacity request set must be rejected")
	}
}

func TestVerifyCatchesConflicts(t *testing.T) {
	c, _ := New(2, 2, 2)
	reqs := []Request{{In: 0, Out: 0}, {In: 1, Out: 2}} // same ingress switch
	if err := c.verify(reqs, []int{0, 0}); err == nil {
		t.Error("shared middle from one ingress must be caught")
	}
	if err := c.verify(reqs, []int{0}); err == nil {
		t.Error("length mismatch must be caught")
	}
	if err := c.verify(reqs, []int{0, 5}); err == nil {
		t.Error("invalid middle index must be caught")
	}
	if err := c.verify(reqs, []int{0, 1}); err != nil {
		t.Errorf("valid assignment rejected: %v", err)
	}
}

// Property (Slepian-Duguid): any partial permutation routes on a
// rearrangeable network (m = n), for random shapes and request sets.
func TestRearrangeableAlwaysRoutes(t *testing.T) {
	prop := func(seed int64, nRaw, rRaw uint8) bool {
		n := int(nRaw%4) + 1
		r := int(rRaw%4) + 1
		c, err := New(n, n, r)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(c.Ports())
		var reqs []Request
		for in, out := range perm {
			if rng.Float64() < 0.8 { // partial permutation
				reqs = append(reqs, Request{In: in, Out: out})
			}
		}
		assign, err := c.Route(reqs)
		if err != nil {
			return false
		}
		return c.verify(reqs, assign) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: with strictly nonblocking m = 2n-1 the same holds (more room).
func TestStrictAlwaysRoutes(t *testing.T) {
	prop := func(seed int64) bool {
		const n, r = 4, 5
		c, _ := New(2*n-1, n, r)
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(c.Ports())
		reqs := make([]Request, 0, len(perm))
		for in, out := range perm {
			reqs = append(reqs, Request{In: in, Out: out})
		}
		assign, err := c.Route(reqs)
		return err == nil && c.verify(reqs, assign) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
