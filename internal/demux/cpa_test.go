package demux

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ppsim/internal/cell"
	"ppsim/internal/shadow"
)

func TestCPAFeasibleUnderSpeedupTwo(t *testing.T) {
	// N=4, K=4, r'=2 -> S = K/r' = 2. Under burstless full-rate traffic
	// (a permutation each slot) CPA must never miss a deadline.
	e := newFakeEnv(4, 4, 2)
	a, err := NewCPA(e, MinAvail)
	if err != nil {
		t.Fatal(err)
	}
	st := cell.NewStamper()
	for slot := cell.Time(0); slot < 50; slot++ {
		var cells []cell.Cell
		for i := 0; i < 4; i++ {
			cells = append(cells, arr(st, slot, cell.Port(i), cell.Port((int(slot)+i)%4)))
		}
		sends, err := a.Slot(slot, cells)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sends {
			if err := e.gates.Gate(int(s.Cell.Flow.In), int(s.Plane)).Seize(slot); err != nil {
				t.Fatalf("input constraint: %v", err)
			}
		}
	}
	if a.Misses() != 0 {
		t.Errorf("CPA missed %d deadlines at S=2", a.Misses())
	}
}

func TestCPAConcentratedOutputFeasible(t *testing.T) {
	// All inputs send to output 0 in one slot (burst N); deadlines are
	// spaced one slot apart, and with S >= 2 CPA must schedule all of them
	// feasibly.
	e := newFakeEnv(6, 6, 2) // S = 3
	a, _ := NewCPA(e, MinAvail)
	st := cell.NewStamper()
	var cells []cell.Cell
	for i := 0; i < 6; i++ {
		cells = append(cells, arr(st, 0, cell.Port(i), 0))
	}
	if _, err := a.Slot(0, cells); err != nil {
		t.Fatal(err)
	}
	if a.Misses() != 0 {
		t.Errorf("misses = %d", a.Misses())
	}
}

func TestCPAMissesWithoutSpeedup(t *testing.T) {
	// S = 1 (K = r'): two consecutive slots of three-input bursts to one
	// output exhaust the feasible planes (the intersection argument needs
	// S >= 2), so misses must be recorded — the graceful-degradation path.
	e := newFakeEnv(4, 3, 3) // S = 1
	a, _ := NewCPA(e, MinAvail)
	st := cell.NewStamper()
	for slot := cell.Time(0); slot < 2; slot++ {
		var cells []cell.Cell
		for i := 1; i < 4; i++ {
			cells = append(cells, arr(st, slot, cell.Port(i), 0))
		}
		sends, err := a.Slot(slot, cells)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sends {
			if err := e.gates.Gate(int(s.Cell.Flow.In), int(s.Plane)).Seize(slot); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a.Misses() == 0 {
		t.Error("expected deadline misses at S=1 under sustained bursts")
	}
}

func TestCPARotateTie(t *testing.T) {
	e := newFakeEnv(4, 4, 1)
	a, err := NewCPA(e, RotateTie)
	if err != nil {
		t.Fatal(err)
	}
	st := cell.NewStamper()
	// r'=1: every plane is always feasible; rotation should spread
	// consecutive cells for one output across planes.
	seen := map[cell.Plane]bool{}
	for slot := cell.Time(0); slot < 4; slot++ {
		s := exec(t, e, a, slot, arr(st, slot, 0, 0))
		seen[s[0].Plane] = true
	}
	if len(seen) != 4 {
		t.Errorf("RotateTie used %d distinct planes in 4 dispatches, want 4", len(seen))
	}
}

func TestCPAUnknownTieBreak(t *testing.T) {
	e := newFakeEnv(2, 2, 1)
	if _, err := NewCPA(e, TieBreak(99)); err == nil {
		t.Error("unknown tie-break must be rejected")
	}
}

// Property: at S >= 2, CPA never misses under random admissible traffic
// where each slot's arrivals form a partial permutation.
func TestCPANoMissesProperty(t *testing.T) {
	prop := func(seed int64) bool {
		const n, k, rp = 4, 8, 4 // S = 2
		e := newFakeEnv(n, k, rp)
		a, err := NewCPA(e, MinAvail)
		if err != nil {
			return false
		}
		st := cell.NewStamper()
		rng := seed
		next := func(m int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := int((rng >> 33) % int64(m))
			if v < 0 {
				v += m
			}
			return v
		}
		for slot := cell.Time(0); slot < 120; slot++ {
			var cells []cell.Cell
			outs := [n]bool{}
			for i := 0; i < n; i++ {
				if next(2) == 0 {
					continue
				}
				j := next(n)
				if outs[j] {
					continue // keep per-slot output bursts at 1: burstless
				}
				outs[j] = true
				cells = append(cells, arr(st, slot, cell.Port(i), cell.Port(j)))
			}
			sends, err := a.Slot(slot, cells)
			if err != nil {
				return false
			}
			for _, s := range sends {
				if err := e.gates.Gate(int(s.Cell.Flow.In), int(s.Plane)).Seize(slot); err != nil {
					return false
				}
			}
		}
		return a.Misses() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCPASetsBasics(t *testing.T) {
	e := newFakeEnv(4, 4, 2)
	a, err := NewCPASets(e)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "cpa-sets" {
		t.Errorf("Name = %q", a.Name())
	}
	if a.Buffered(0) != 0 {
		t.Error("bufferless")
	}
	st := cell.NewStamper()
	sends, err := a.Slot(0, []cell.Cell{st.Stamp(cell.Flow{In: 0, Out: 0}, 0)})
	if err != nil || len(sends) != 1 {
		t.Fatalf("Slot: %v %v", sends, err)
	}
	if a.Misses() != 0 {
		t.Error("no misses expected")
	}
}

func TestCPASetsDegradesAtLowSpeedup(t *testing.T) {
	// Same two-burst scenario as TestCPAMissesWithoutSpeedup.
	e := newFakeEnv(4, 3, 3) // S = 1
	a, _ := NewCPASets(e)
	st := cell.NewStamper()
	for slot := cell.Time(0); slot < 2; slot++ {
		var cells []cell.Cell
		for i := 1; i < 4; i++ {
			cells = append(cells, arr(st, slot, cell.Port(i), 0))
		}
		exec(t, e, a, slot, cells...)
	}
	if a.Misses() == 0 {
		t.Error("expected empty AIL/AOL intersections at S=1")
	}
}

// scanCPA is the historical CPA, the reference the bucketed one is held
// to: an O(K) scan per cell over an N·K table of line times. With lag >= 0
// it replays BufferedCPA's release rule around the same scan.
type scanCPA struct {
	env  Env
	name string
	tie  TieBreak
	lag  cell.Time // < 0: the bufferless CPA
	// linkNext[k*N+j] is the earliest slot a new reservation on line
	// (k, j) may be scheduled, assuming queued cells drain greedily.
	linkNext []cell.Time
	rotate   []cell.Plane
	oracle   *shadow.Oracle
	bufs     [][]cell.Cell
	misses   uint64
}

func newScanCPA(env Env, tie TieBreak, lag cell.Time) *scanCPA {
	n, k := env.Ports(), env.Planes()
	name := map[TieBreak]string{MinAvail: "cpa", RotateTie: "cpa-rotate"}[tie]
	if lag >= 0 {
		name = "buffered-cpa"
	}
	return &scanCPA{
		env: env, name: name, tie: tie, lag: lag,
		linkNext: make([]cell.Time, n*k),
		rotate:   make([]cell.Plane, n),
		oracle:   shadow.NewOracle(n),
		bufs:     make([][]cell.Cell, n),
	}
}

func (a *scanCPA) Slot(t cell.Time, arrivals []cell.Cell) ([]Send, error) {
	var sends []Send
	send := func(c cell.Cell, deadline cell.Time) error {
		p := a.place(t, c.Flow.In, c.Flow.Out, deadline)
		if p == cell.NoPlane {
			return fmt.Errorf("demux: %s input %d has no free gate at slot %d", a.name, c.Flow.In, t)
		}
		sends = append(sends, Send{Cell: c, Plane: p})
		return nil
	}
	if a.lag < 0 {
		for _, c := range arrivals {
			if err := send(c, a.oracle.Departure(t, c.Flow.Out)); err != nil {
				return nil, err
			}
		}
		return sends, nil
	}
	for _, c := range arrivals {
		a.bufs[c.Flow.In] = append(a.bufs[c.Flow.In], c)
	}
	for i := range a.bufs {
		for len(a.bufs[i]) > 0 && t-a.bufs[i][0].Arrive >= a.lag {
			c := a.bufs[i][0]
			a.bufs[i] = a.bufs[i][1:]
			if err := send(c, a.oracle.Departure(c.Arrive, c.Flow.Out)+a.lag); err != nil {
				return nil, err
			}
			if a.lag > 0 {
				break
			}
		}
	}
	return sends, nil
}

func (a *scanCPA) place(t cell.Time, in, out cell.Port, deadline cell.Time) cell.Plane {
	p, reserve, feasible := a.choose(t, in, out, deadline)
	if p == cell.NoPlane {
		return p
	}
	if !feasible {
		a.misses++
	}
	a.linkNext[int(p)*a.env.Ports()+int(out)] = reserve + cell.Time(a.env.RPrime())
	return p
}

// choose returns the selected plane, its reservation slot, and whether the
// reservation meets the deadline.
func (a *scanCPA) choose(t cell.Time, in, out cell.Port, deadline cell.Time) (cell.Plane, cell.Time, bool) {
	n, k := a.env.Ports(), a.env.Planes()
	bestP := cell.NoPlane
	var bestReserve cell.Time
	start := 0
	if a.tie == RotateTie {
		start = int(a.rotate[out])
	}
	free := a.env.FreeGateMask(in, t)
	for d := 0; d < k; d++ {
		p := cell.Plane((start + d) % k)
		if free&(1<<uint(p)) == 0 {
			continue // input constraint: line (in, p) busy
		}
		reserve := max(a.linkNext[int(p)*n+int(out)], t)
		if a.tie == RotateTie && reserve <= deadline {
			// First feasible plane in rotation order wins outright.
			a.rotate[out] = (p + 1) % cell.Plane(k)
			return p, reserve, true
		}
		if bestP == cell.NoPlane || reserve < bestReserve {
			bestP, bestReserve = p, reserve
		}
	}
	if bestP == cell.NoPlane {
		return cell.NoPlane, 0, false
	}
	if a.tie == RotateTie {
		a.rotate[out] = (bestP + 1) % cell.Plane(k)
	}
	return bestP, bestReserve, bestReserve <= deadline
}

// matchScan drives CPA with the given tie-break (lag < 0) or BufferedCPA at
// the given lag, and the scan reference, through one arrival stream over
// one gate matrix, and fails at the first slot where their planes, errors
// or miss counts differ. Byte b of ops is one input's arrival in one slot,
// inputs in order: none when b is even, else a cell to output (b>>1) mod n.
// Buffered runs go on until their buffers drain.
func matchScan(t *testing.T, n, k int, rp int64, tie TieBreak, lag cell.Time, ops []byte) {
	t.Helper()
	e := newFakeEnv(n, k, rp)
	var a Algorithm
	var misses func() uint64
	if lag < 0 {
		c, err := NewCPA(e, tie)
		if err != nil {
			t.Fatal(err)
		}
		a, misses = c, c.Misses
	} else {
		b, err := NewBufferedCPA(e, lag, MinAvail)
		if err != nil {
			t.Fatal(err)
		}
		a, misses = b, b.Misses
	}
	ref := newScanCPA(e, tie, lag)
	what := fmt.Sprintf("n=%d k=%d r'=%d tie=%d lag=%d", n, k, rp, tie, lag)
	st := cell.NewStamper()
	var cells []cell.Cell
	buffered := func() (m int) {
		for in := 0; in < n; in++ {
			m += a.Buffered(cell.Port(in))
		}
		return m
	}
	for slot := cell.Time(0); len(ops) > 0 || buffered() > 0; slot++ {
		cells = cells[:0]
		for in := 0; in < n && len(ops) > 0; in++ {
			if b := ops[0]; b&1 == 1 {
				cells = append(cells, arr(st, slot, cell.Port(in), cell.Port(int(b>>1)%n)))
			}
			ops = ops[1:]
		}
		got, err := a.Slot(slot, cells)
		want, werr := ref.Slot(slot, cells)
		if err != nil || werr != nil {
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("%s slot %d: error %v, scan says %v", what, slot, err, werr)
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%s slot %d: %d sends, scan says %d", what, slot, len(got), len(want))
		}
		for i, s := range got {
			if s.Cell.Seq != want[i].Cell.Seq || s.Plane != want[i].Plane {
				t.Fatalf("%s slot %d: cell %d to plane %d, scan sends cell %d to plane %d",
					what, slot, s.Cell.Seq, s.Plane, want[i].Cell.Seq, want[i].Plane)
			}
			if err := e.gates.Gate(int(s.Cell.Flow.In), int(s.Plane)).Seize(slot); err != nil {
				t.Fatalf("%s slot %d: %v", what, slot, err)
			}
		}
		if misses() != ref.misses {
			t.Fatalf("%s slot %d: %d misses, scan says %d", what, slot, misses(), ref.misses)
		}
	}
}

// TestCPAMatchesScanReference holds CPA under both tie-breaks, and
// BufferedCPA at lags 0 to 4, to the historical O(K) scan on random
// arrival streams, at speedups below and above 2 and with K < r', where
// inputs run out of free gates.
func TestCPAMatchesScanReference(t *testing.T) {
	const n, slots = 8, 150
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 3, 4, 8, 33, 64} {
		for _, rp := range []int64{1, 2, 3, 8} {
			for _, mode := range []cell.Time{-2, -1, 0, 1, 4} {
				ops := make([]byte, n*slots)
				rng.Read(ops)
				tie, lag := MinAvail, mode
				if mode == -2 {
					tie, lag = RotateTie, -1
				}
				matchScan(t, n, k, rp, tie, lag, ops)
			}
		}
	}
}

// FuzzCPAMatchesScan searches for an arrival stream on which CPA or
// BufferedCPA and the historical scan disagree: K in [1, 64], r' in [1, 8],
// n in [1, 8]; mode 0 is MinAvail, 1 RotateTie, 2 to 6 BufferedCPA at lag
// mode-2.
func FuzzCPAMatchesScan(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 8*300)
	rng.Read(long)
	for mode := byte(0); mode < 7; mode++ {
		f.Add(byte(7), byte(5), byte(3), mode, long)  // K=6, r'=4: S < 2
		f.Add(byte(7), byte(7), byte(3), mode, long)  // K=8, r'=4: S = 2
		f.Add(byte(7), byte(31), byte(3), mode, long) // K=32, r'=4: S = 8
	}
	f.Add(byte(3), byte(2), byte(2), byte(1), []byte{1, 1, 1, 1, 3, 3, 3, 3, 1, 0, 1, 0})
	f.Add(byte(2), byte(1), byte(3), byte(0), []byte{1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, nb, kb, rb, mode byte, ops []byte) {
		n, k, rp := 1+int(nb%8), 1+int(kb%64), 1+int64(rb%8)
		tie, lag := MinAvail, cell.Time(-1)
		switch m := mode % 7; {
		case m == 1:
			tie = RotateTie
		case m >= 2:
			lag = cell.Time(m - 2)
		}
		matchScan(t, n, k, rp, tie, lag, ops)
	})
}
