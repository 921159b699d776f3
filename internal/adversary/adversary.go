// Package adversary constructs the worst-case leaky-bucket traffics used in
// the paper's lower-bound proofs. Each construction returns an explicit
// traffic.Trace; replaying it through a fresh PPS (same configuration, same
// algorithm factory) reproduces the concentration scenario of the
// corresponding theorem.
//
// The proofs argue existentially — "there is a traffic leading the switch
// from configuration C to C_i" (Theorem 6). The adversary realizes that
// existence constructively: it drives a private scratch instance of the
// exact switch under attack, probes the demultiplexors' deterministic state
// machines through the demux.Prober interface, and emits cells until each
// targeted demultiplexor would send its next cell for the victim output
// through the victim plane. Because both the algorithm and the fabric are
// deterministic, the real run then retraces the scratch run exactly.
package adversary

import (
	"fmt"
	"math/rand"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/traffic"
)

// SteeringSpec parameterizes the Theorem 6 / Theorem 8 construction.
type SteeringSpec struct {
	// Fabric is the geometry of the switch under attack.
	Fabric fabric.Config
	// Factory builds the algorithm under attack; it must produce a
	// demux.Prober (deterministic fully-distributed algorithms do).
	Factory func(demux.Env) (demux.Algorithm, error)
	// Inputs is the set I of demultiplexors to align (Theorem 6's
	// d-partitioned set; all N inputs for Corollary 7).
	Inputs []cell.Port
	// Out is the victim output-port j.
	Out cell.Port
	// Plane is the victim plane k all steered inputs will converge on.
	Plane cell.Plane
	// ScrambleSlots optionally prepends admissible random traffic, so the
	// construction starts from a non-trivial applicable configuration C
	// rather than the reset state.
	ScrambleSlots cell.Time
	// ScrambleSeed seeds the scramble phase.
	ScrambleSeed int64
}

// Steering builds the LB traffic of Theorem 6: (1) optional scramble, (2)
// drain, (3) steer each targeted demultiplexor until its next choice for
// (i, Out) is Plane, (4) drain again, (5) a burst of len(Inputs) cells to
// Out, one per slot, from the aligned inputs. Phases 1-4 keep at most one
// cell per slot headed to any output, so the whole trace is (R, 0)
// leaky-bucket apart from the scramble (whose burstiness is reported by the
// harness).
func Steering(spec SteeringSpec) (*traffic.Trace, error) {
	if len(spec.Inputs) == 0 {
		return nil, fmt.Errorf("adversary: steering needs at least one input")
	}
	s, err := newScratch(spec.Fabric, spec.Factory)
	if err != nil {
		return nil, err
	}
	prober, ok := s.pps.Algorithm().(demux.Prober)
	if !ok {
		return nil, fmt.Errorf("adversary: algorithm %s does not expose WouldChoose; the steering construction applies to deterministic fully-distributed algorithms", s.pps.Algorithm().Name())
	}
	rp := cell.Time(spec.Fabric.RPrime)

	// Phase 1: scramble into an arbitrary applicable configuration.
	if spec.ScrambleSlots > 0 {
		rng := rand.New(rand.NewSource(spec.ScrambleSeed))
		for i := cell.Time(0); i < spec.ScrambleSlots; i++ {
			var as []traffic.Arrival
			usedOut := map[cell.Port]bool{}
			for in := 0; in < spec.Fabric.N; in++ {
				if rng.Float64() > 0.5 {
					continue
				}
				out := cell.Port(rng.Intn(spec.Fabric.N))
				if usedOut[out] {
					continue // keep the scramble burstless per output
				}
				usedOut[out] = true
				as = append(as, traffic.Arrival{In: cell.Port(in), Out: out})
			}
			if err := s.step(as); err != nil {
				return nil, err
			}
		}
		if err := s.drain(rp); err != nil {
			return nil, err
		}
	}

	// Phase 2: steer each input until its next choice is the victim plane.
	for _, in := range spec.Inputs {
		limit := 4*spec.Fabric.K + 4
		for iter := 0; ; iter++ {
			p, ok := prober.WouldChoose(in, spec.Out)
			if !ok {
				return nil, fmt.Errorf("adversary: %s cannot predict input %d", s.pps.Algorithm().Name(), in)
			}
			if p == spec.Plane {
				break
			}
			if iter >= limit {
				return nil, fmt.Errorf("adversary: input %d did not align on plane %d within %d cells (is the plane reachable for this input?)",
					in, spec.Plane, limit)
			}
			// One steering cell, then r'-1 idle slots so every gate is
			// free again and WouldChoose's all-gates-free assumption
			// stays exact.
			if err := s.step([]traffic.Arrival{{In: in, Out: spec.Out}}); err != nil {
				return nil, err
			}
			if err := s.idle(rp - 1); err != nil {
				return nil, err
			}
		}
	}

	// Phase 3: let every buffer in every plane drain (the proof's "no
	// operations" column in Figure 2).
	if err := s.drain(rp); err != nil {
		return nil, err
	}

	// Phase 4: the aligned burst — one cell per slot, rate exactly R
	// toward Out, zero burstiness.
	for _, in := range spec.Inputs {
		if err := s.step([]traffic.Arrival{{In: in, Out: spec.Out}}); err != nil {
			return nil, err
		}
	}
	return s.trace, nil
}

// scratch couples a trace under construction with a live simulation of it.
type scratch struct {
	pps   *fabric.PPS
	st    *cell.Stamper
	trace *traffic.Trace
	t     cell.Time
	deps  []cell.Cell
}

func newScratch(cfg fabric.Config, factory func(demux.Env) (demux.Algorithm, error)) (*scratch, error) {
	pps, err := fabric.New(cfg, factory)
	if err != nil {
		return nil, err
	}
	return &scratch{pps: pps, st: cell.NewStamper(), trace: traffic.NewTrace()}, nil
}

// step records the arrivals at the current slot and advances the scratch
// switch one slot.
func (s *scratch) step(as []traffic.Arrival) error {
	cells := make([]cell.Cell, 0, len(as))
	for _, a := range as {
		if err := s.trace.Add(s.t, a.In, a.Out); err != nil {
			return err
		}
		cells = append(cells, s.st.Stamp(cell.Flow{In: a.In, Out: a.Out}, s.t))
	}
	var err error
	s.deps, err = s.pps.Step(s.t, cells, s.deps[:0])
	if err != nil {
		return err
	}
	s.t++
	return nil
}

// idle advances n silent slots.
func (s *scratch) idle(n cell.Time) error {
	for i := cell.Time(0); i < n; i++ {
		if err := s.step(nil); err != nil {
			return err
		}
	}
	return nil
}

// drain idles until the scratch switch is empty, then a further extra slots
// so that every internal line is free again.
func (s *scratch) drain(extra cell.Time) error {
	for guard := 0; !s.pps.Drained(); guard++ {
		if guard > 1<<20 {
			return fmt.Errorf("adversary: scratch switch did not drain")
		}
		if err := s.step(nil); err != nil {
			return err
		}
	}
	return s.idle(extra)
}

// AllInputs returns the ports 0..n-1, the input set of Corollary 7's
// unpartitioned construction.
func AllInputs(n int) []cell.Port {
	out := make([]cell.Port, n)
	for i := range out {
		out[i] = cell.Port(i)
	}
	return out
}

// PartitionInputs returns the inputs that share plane under static
// partitioning of k planes into groups of d (demux.PartitionGroup) — the
// set I of Theorem 8 (|I| = N*d/K).
func PartitionInputs(n, k, d int, plane cell.Plane) []cell.Port {
	var out []cell.Port
	for i := 0; i < n; i++ {
		if demux.PartitionGroup(cell.Port(i), k, d) == int(plane)/d {
			out = append(out, cell.Port(i))
		}
	}
	return out
}

// Concentration builds the bare Lemma 4 scenario: c cells for the same
// output arriving in c consecutive slots from c distinct inputs, with
// nothing else in flight. Against any algorithm whose fresh state maps the
// first cell of every input to the same plane (round-robin, partition and
// stale-CPA all do), the cells concentrate and the last departs around
// (c-1) * r' slots after the first, while the reference switch finishes in
// c slots.
func Concentration(n, c int, out cell.Port) (*traffic.Trace, error) {
	if c > n {
		return nil, fmt.Errorf("adversary: concentration of %d cells needs at least that many inputs, have %d", c, n)
	}
	tr := traffic.NewTrace()
	for i := 0; i < c; i++ {
		if err := tr.Add(cell.Time(i), cell.Port(i), out); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// HerdingSpec parameterizes the Theorem 10 construction against u-RT
// algorithms.
type HerdingSpec struct {
	// N is the switch size.
	N int
	// Out is the victim output.
	Out cell.Port
	// Slots is the burst duration; at most u slots stay inside the
	// algorithm's blind window.
	Slots cell.Time
	// PerSlot is the number of cells to Out per burst slot (<= N); the
	// trace's burstiness is Slots*PerSlot - Slots.
	PerSlot int
	// LeadIn prepends this many slots of single-cell traffic to Out so
	// the stale view is warm (non-empty) when the burst starts.
	LeadIn cell.Time
	// WitnessGap, when positive, appends one more cell on the first burst
	// input's flow this many slots after the burst ends — by then every
	// buffer has drained (callers size the gap from r' and the burst),
	// the witness departs immediately, and the flow's jitter exposes the
	// full concentration delay (the Lemma 4 part-2 device, as used in the
	// Theorem 10 bound on relative delay jitter).
	WitnessGap cell.Time
}

// Herding builds a burst that lands entirely inside a u-RT algorithm's
// blind window: every arriving input reconstructs the same stale picture,
// deterministically picks the same "least loaded" plane, and the burst
// concentrates — cells pile onto one plane at rate PerSlot per slot while
// the plane's output line carries one cell per r' slots.
func Herding(spec HerdingSpec) (*traffic.Trace, error) {
	if spec.PerSlot < 1 || spec.PerSlot > spec.N {
		return nil, fmt.Errorf("adversary: PerSlot %d outside [1, N=%d]", spec.PerSlot, spec.N)
	}
	if spec.Slots < 1 {
		return nil, fmt.Errorf("adversary: burst must last at least one slot")
	}
	tr := traffic.NewTrace()
	t := cell.Time(0)
	for ; t < spec.LeadIn; t++ {
		if err := tr.Add(t, cell.Port(int(t)%spec.N), spec.Out); err != nil {
			return nil, err
		}
	}
	next := 0
	for s := cell.Time(0); s < spec.Slots; s++ {
		for x := 0; x < spec.PerSlot; x++ {
			if err := tr.Add(t+s, cell.Port(next%spec.N), spec.Out); err != nil {
				return nil, err
			}
			next++
		}
	}
	if spec.WitnessGap > 0 {
		// The witness shares a flow with the most-delayed burst cell (the
		// last one injected), so the flow's jitter spans the full
		// concentration delay.
		lastIn := cell.Port((next - 1) % spec.N)
		at := t + spec.Slots + spec.WitnessGap
		if err := tr.Add(at, lastIn, spec.Out); err != nil {
			return nil, err
		}
	}
	return tr, nil
}
