package demux

import (
	"testing"

	"ppsim/internal/cell"
)

// healthEnv extends the fake fabric with the PlaneHealth capability.
type healthEnv struct {
	*fakeEnv
	down map[cell.Plane]bool
}

func (h *healthEnv) PlaneUp(k cell.Plane) bool { return !h.down[k] }

func TestFaultAwareRequiresPlaneHealth(t *testing.T) {
	e := newFakeEnv(4, 4, 2)
	_, err := NewFaultAware(e, func(e Env) (Algorithm, error) { return NewRoundRobin(e, PerInput) })
	if err == nil {
		t.Fatal("NewFaultAware accepted an environment without PlaneHealth")
	}
}

func TestFaultAwareMasksFailedPlanes(t *testing.T) {
	e := &healthEnv{fakeEnv: newFakeEnv(4, 4, 2), down: map[cell.Plane]bool{1: true}}
	a, err := NewFaultAware(e, func(e Env) (Algorithm, error) { return NewRoundRobin(e, PerInput) })
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "faultaware(rr)" {
		t.Errorf("Name = %q", a.Name())
	}
	st := cell.NewStamper()
	for slot := cell.Time(0); slot < 32; slot++ {
		sends := exec(t, e.fakeEnv, a, slot, arr(st, slot, 0, 0))
		for _, s := range sends {
			if s.Plane == 1 {
				t.Fatalf("slot %d: dispatched to failed plane 1", slot)
			}
		}
	}
}

func TestFaultAwareRecoveryRejoins(t *testing.T) {
	e := &healthEnv{fakeEnv: newFakeEnv(2, 3, 1), down: map[cell.Plane]bool{2: true}}
	a, err := NewFaultAware(e, func(e Env) (Algorithm, error) { return NewRoundRobin(e, PerInput) })
	if err != nil {
		t.Fatal(err)
	}
	st := cell.NewStamper()
	slot := cell.Time(0)
	run := func(slots int) map[cell.Plane]int {
		used := make(map[cell.Plane]int)
		for i := 0; i < slots; i++ {
			for _, s := range exec(t, e.fakeEnv, a, slot, arr(st, slot, 0, 1)) {
				used[s.Plane]++
			}
			slot++
		}
		return used
	}
	if used := run(12); used[2] != 0 {
		t.Fatalf("masked plane used: %v", used)
	}
	delete(e.down, 2) // plane recovers; its real gate state shows through
	if used := run(12); used[2] == 0 {
		t.Errorf("recovered plane never rejoined the rotation: %v", used)
	}
}

func TestFaultAwareWouldChoosePassthrough(t *testing.T) {
	e := &healthEnv{fakeEnv: newFakeEnv(4, 4, 2)}
	// Round-robin implements Prober: the probe must delegate to the inner
	// algorithm (WouldChoose is a gate-blind hypothetical, so masking does
	// not apply to it — only to real dispatch decisions).
	a, err := NewFaultAware(e, func(e Env) (Algorithm, error) { return NewRoundRobin(e, PerInput) })
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewRoundRobin(newFakeEnv(4, 4, 2), PerInput)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := a.(Prober).WouldChoose(0, 3)
	want, _ := inner.WouldChoose(0, 3)
	if !ok || p != want {
		t.Errorf("WouldChoose = %d, %v; want delegation to inner (%d)", p, ok, want)
	}
}

// proberless is an Algorithm that does not implement Prober.
type proberless struct{ Algorithm }

func (p proberless) Name() string { return "proberless" }

func TestFaultAwareWouldChooseWithoutProber(t *testing.T) {
	e := &healthEnv{fakeEnv: newFakeEnv(2, 2, 1)}
	a, err := NewFaultAware(e, func(e Env) (Algorithm, error) {
		inner, err := NewRoundRobin(e, PerInput)
		return proberless{inner}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := a.(Prober).WouldChoose(0, 0); ok || p != cell.NoPlane {
		t.Errorf("WouldChoose on a prober-less inner = %d, %v; want NoPlane, false", p, ok)
	}
	if a.Name() != "faultaware(proberless)" {
		t.Errorf("Name = %q", a.Name())
	}
}

// TestMaskedEnvFreeGateMaskMatchesScan pins maskedEnv.FreeGateMask to its
// definition — bit k set iff the masked per-plane view reports plane k's
// gate free — with a dead plane and busy gates in play.
func TestMaskedEnvFreeGateMaskMatchesScan(t *testing.T) {
	const n, k, rp = 2, 6, 3
	env := &healthEnv{fakeEnv: newFakeEnv(n, k, rp), down: map[cell.Plane]bool{4: true}}
	m := maskedEnv{Env: env, health: env}
	// Busy the gates to planes 1 (live) and 4 (dead) from input 0 at slot 0:
	// both hold until slot rp.
	for _, p := range []int{1, 4} {
		if err := env.gates.SeizeAt(0, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	for slot := cell.Time(0); slot <= rp; slot++ {
		for in := cell.Port(0); in < n; in++ {
			var want uint64
			for p := 0; p < k; p++ {
				if m.InputGateFreeAt(in, cell.Plane(p)) <= slot {
					want |= 1 << uint(p)
				}
			}
			if want&(1<<4) != 0 {
				t.Fatal("dead plane 4 visible in the reference scan")
			}
			if got := m.FreeGateMask(in, slot); got != want {
				t.Errorf("FreeGateMask(%d, %d) = %#b, scan says %#b", in, slot, got, want)
			}
		}
	}
}
