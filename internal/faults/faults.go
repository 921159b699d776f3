// Package faults models center-stage plane failures as data: a declarative,
// deterministic schedule of fail/recover events (plus optional per-plane
// cell-loss probabilities), and the degradation policy that decides what a
// dispatch into a dead plane means.
//
// Section 3 of the paper argues that fault tolerance is *the* reason every
// demultiplexor must be able to reach every plane: a statically partitioned
// PPS turns one plane failure into a stranded input group, while an
// unpartitioned PPS degrades to a switch with K-1 planes (footnote 4).
// Measuring that degradation requires runs that survive a failure instead of
// aborting at the first dead-plane dispatch — which is exactly what the
// DropCount policy provides: dead-plane dispatches (and the backlog a plane
// takes down with it) become accounted losses instead of execution errors.
//
// A Schedule is immutable once built and may be shared across runs; all
// per-run mutable state (the event cursor, the loss RNG streams) lives in a
// Runtime, which the fabric constructs per switch instance. Everything is
// deterministic: events apply in a canonical order and the loss streams are
// seeded from Schedule.Seed, so two runs over the same schedule — serial or
// stage-parallel — drop exactly the same cells.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ppsim/internal/cell"
)

// Policy selects how the fabric degrades when a cell meets a failed plane.
type Policy uint8

// Degradation policies.
const (
	// Abort keeps the historical semantics: the formal model forbids
	// drops, so any dispatch into a failed plane aborts the run with an
	// error. Mid-run failures leave already-queued cells draining (the
	// output-side lines are assumed intact). This is the default.
	Abort Policy = iota
	// DropCount converts dead-plane losses into accounted drops: a
	// dispatch into a failed plane, the backlog a plane holds when it
	// fails, and cells lost to a plane's cell-loss probability are counted
	// (totals, per plane, per input) instead of aborting the run. The mux
	// resequencers and the fabric's order referee tolerate the per-flow
	// sequence gaps the drops leave behind.
	DropCount
)

// String names the policy as accepted by ParsePolicy.
func (p Policy) String() string {
	switch p {
	case Abort:
		return "abort"
	case DropCount:
		return "dropcount"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy maps a policy name to its value.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "abort":
		return Abort, nil
	case "dropcount", "drop-count", "drop":
		return DropCount, nil
	}
	return Abort, fmt.Errorf("faults: unknown policy %q (want abort or dropcount)", s)
}

// Kind discriminates schedule events.
type Kind uint8

// Event kinds.
const (
	// Fail marks the plane failed from the event's slot on.
	Fail Kind = iota
	// Recover returns the plane to service from the event's slot on. A
	// recovered plane rejoins empty under DropCount (its backlog was
	// dropped when it failed).
	Recover
)

// String names the kind as it appears in specs.
func (k Kind) String() string {
	if k == Recover {
		return "recover"
	}
	return "fail"
}

// Event is one scheduled state change: plane Plane changes to failed
// (Fail) or live (Recover) at the start of slot Slot, before that slot's
// arrivals are presented.
type Event struct {
	Slot  cell.Time
	Plane cell.Plane
	Kind  Kind
}

// Schedule is a declarative fault plan. The zero value / NewSchedule() is an
// empty schedule (no events, no loss); builder methods return the schedule
// for chaining. Build the schedule fully before the first run: it is
// immutable from the fabric's point of view and may be shared across runs
// and goroutines once built.
type Schedule struct {
	events []Event
	// mu guards the lazy canonical sort: building is single-threaded, but
	// a built schedule may be shared by concurrently-constructed runs.
	mu     sync.Mutex
	sorted bool
	// loss[k] is plane k's per-cell loss probability (sparse; planes
	// beyond len(loss) lose nothing).
	loss []float64
	seed int64
}

// NewSchedule returns an empty schedule.
func NewSchedule() *Schedule { return &Schedule{} }

// FailAt schedules plane p to fail at the start of slot t.
func (s *Schedule) FailAt(p cell.Plane, t cell.Time) *Schedule {
	s.events = append(s.events, Event{Slot: t, Plane: p, Kind: Fail})
	s.sorted = false
	return s
}

// RecoverAt schedules plane p to return to service at the start of slot t.
func (s *Schedule) RecoverAt(p cell.Plane, t cell.Time) *Schedule {
	s.events = append(s.events, Event{Slot: t, Plane: p, Kind: Recover})
	s.sorted = false
	return s
}

// Outage schedules a transient window: plane p fails at from and recovers
// at to (to > from).
func (s *Schedule) Outage(p cell.Plane, from, to cell.Time) *Schedule {
	return s.FailAt(p, from).RecoverAt(p, to)
}

// WithLoss sets plane p's per-cell loss probability (cells dispatched into
// the live plane are lost with probability prob, drawn from the seeded
// stream). Loss requires the DropCount policy.
func (s *Schedule) WithLoss(p cell.Plane, prob float64) *Schedule {
	for int(p) >= len(s.loss) {
		s.loss = append(s.loss, 0)
	}
	s.loss[p] = prob
	return s
}

// WithSeed sets the seed of the per-plane loss streams. Runs with the same
// schedule and seed lose exactly the same cells.
func (s *Schedule) WithSeed(seed int64) *Schedule {
	s.seed = seed
	return s
}

// Seed reports the loss-stream seed.
func (s *Schedule) Seed() int64 { return s.seed }

// Empty reports whether the schedule changes nothing: no events and no
// loss. An empty schedule under the Abort policy is byte-identical to no
// schedule at all.
func (s *Schedule) Empty() bool {
	if s == nil {
		return true
	}
	if len(s.events) > 0 {
		return false
	}
	for _, p := range s.loss {
		if p != 0 {
			return false
		}
	}
	return true
}

// HasLoss reports whether any plane has a nonzero loss probability.
func (s *Schedule) HasLoss() bool {
	for _, p := range s.loss {
		if p != 0 {
			return true
		}
	}
	return false
}

// Loss reports plane p's per-cell loss probability.
func (s *Schedule) Loss(p cell.Plane) float64 {
	if int(p) >= len(s.loss) {
		return 0
	}
	return s.loss[p]
}

// Events returns the schedule's events in canonical application order:
// ascending slot, then plane, then kind (Recover before Fail, so a
// same-slot recover+fail of two planes is unambiguous). The returned slice
// is the schedule's own storage — do not modify it.
func (s *Schedule) Events() []Event {
	s.normalize()
	return s.events
}

func (s *Schedule) normalize() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sorted {
		return
	}
	sort.SliceStable(s.events, func(i, j int) bool {
		a, b := s.events[i], s.events[j]
		if a.Slot != b.Slot {
			return a.Slot < b.Slot
		}
		if a.Plane != b.Plane {
			return a.Plane < b.Plane
		}
		return a.Kind > b.Kind // Recover (1) before Fail (0)
	})
	s.sorted = true
}

// Validate reports schedule errors against a K-plane switch: out-of-range
// planes, negative slots, duplicate same-plane same-slot events,
// consecutive same-kind events for one plane (fail-fail without a recover,
// or recover-recover without a fail), and loss probabilities outside [0, 1].
// A leading Recover is legal: it un-fails a plane failed before slot 0
// (e.g. via the harness's FailPlanes option).
func (s *Schedule) Validate(k int) error {
	if s == nil {
		return nil
	}
	s.normalize()
	lastKind := make(map[cell.Plane]Kind)
	lastSlot := make(map[cell.Plane]cell.Time)
	for _, e := range s.events {
		if int(e.Plane) < 0 || int(e.Plane) >= k {
			return fmt.Errorf("faults: event %s plane %d outside [0, %d)", e.Kind, e.Plane, k)
		}
		if e.Slot < 0 {
			return fmt.Errorf("faults: event %s plane %d at negative slot %d", e.Kind, e.Plane, e.Slot)
		}
		if prev, ok := lastSlot[e.Plane]; ok {
			if prev == e.Slot {
				return fmt.Errorf("faults: plane %d has two events at slot %d", e.Plane, e.Slot)
			}
			if lastKind[e.Plane] == e.Kind {
				return fmt.Errorf("faults: plane %d: consecutive %s events at slots %d and %d", e.Plane, e.Kind, prev, e.Slot)
			}
		}
		lastKind[e.Plane] = e.Kind
		lastSlot[e.Plane] = e.Slot
	}
	for p, prob := range s.loss {
		if prob < 0 || prob > 1 {
			return fmt.Errorf("faults: plane %d loss probability %g outside [0, 1]", p, prob)
		}
		if prob != 0 && p >= k {
			return fmt.Errorf("faults: loss on plane %d outside [0, %d)", p, k)
		}
	}
	return nil
}

// String renders the schedule in the spec grammar accepted by ParseSpec.
func (s *Schedule) String() string {
	if s == nil {
		return ""
	}
	s.normalize()
	var parts []string
	for _, e := range s.events {
		parts = append(parts, fmt.Sprintf("%s:%d@%d", e.Kind, e.Plane, e.Slot))
	}
	for p, prob := range s.loss {
		if prob != 0 {
			parts = append(parts, fmt.Sprintf("loss:%d@%g", p, prob))
		}
	}
	if s.seed != 0 {
		parts = append(parts, fmt.Sprintf("seed:%d", s.seed))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the comma-separated fault spec grammar used by the
// ppssim -faults flag:
//
//	fail:P@T       plane P fails at the start of slot T
//	recover:P@T    plane P returns to service at the start of slot T
//	outage:P@T1-T2 plane P fails at T1 and recovers at T2
//	loss:P@PROB    plane P loses each cell with probability PROB
//	seed:S         seed of the loss streams
//
// Example: "fail:0@1000,recover:0@3000,loss:2@0.001,seed:7".
// ParseSpec validates syntax and local ranges only; call Validate(K) to
// check the schedule against a concrete switch geometry.
func ParseSpec(spec string) (*Schedule, error) {
	s := NewSchedule()
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return s, nil
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		verb, rest, ok := strings.Cut(item, ":")
		if !ok {
			return nil, fmt.Errorf("faults: %q is not VERB:ARGS", item)
		}
		if verb == "seed" {
			seed, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", rest, err)
			}
			s.WithSeed(seed)
			continue
		}
		planeStr, arg, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("faults: %q is not %s:PLANE@ARG", item, verb)
		}
		plane, err := strconv.Atoi(planeStr)
		if err != nil || plane < 0 {
			return nil, fmt.Errorf("faults: bad plane %q in %q", planeStr, item)
		}
		p := cell.Plane(plane)
		switch verb {
		case "fail", "recover":
			slot, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || slot < 0 {
				return nil, fmt.Errorf("faults: bad slot %q in %q", arg, item)
			}
			if verb == "fail" {
				s.FailAt(p, cell.Time(slot))
			} else {
				s.RecoverAt(p, cell.Time(slot))
			}
		case "outage":
			fromStr, toStr, ok := strings.Cut(arg, "-")
			if !ok {
				return nil, fmt.Errorf("faults: outage window %q is not T1-T2", arg)
			}
			from, err1 := strconv.ParseInt(fromStr, 10, 64)
			to, err2 := strconv.ParseInt(toStr, 10, 64)
			if err1 != nil || err2 != nil || from < 0 || to <= from {
				return nil, fmt.Errorf("faults: bad outage window %q in %q", arg, item)
			}
			s.Outage(p, cell.Time(from), cell.Time(to))
		case "loss":
			prob, err := strconv.ParseFloat(arg, 64)
			if err != nil || prob < 0 || prob > 1 {
				return nil, fmt.Errorf("faults: bad loss probability %q in %q", arg, item)
			}
			s.WithLoss(p, prob)
		default:
			return nil, fmt.Errorf("faults: unknown verb %q in %q (want fail, recover, outage, loss or seed)", verb, item)
		}
	}
	return s, nil
}

// Runtime is the per-run applier of one schedule: an advancing cursor over
// the canonical event order plus the per-plane loss streams. A Runtime
// belongs to exactly one switch instance; the schedule it reads stays
// shared and immutable. The steady-state cost with an exhausted cursor and
// no loss is one bounds check per slot and zero allocations.
type Runtime struct {
	sched *Schedule
	idx   int
	// rng[k] is plane k's loss stream; nil when the plane loses nothing,
	// so planes without loss never draw (and never perturb other planes'
	// streams).
	rng []*lossRNG
}

// NewRuntime returns a runtime for a K-plane switch. The schedule must have
// been validated against k.
func NewRuntime(s *Schedule, k int) *Runtime {
	s.normalize()
	rt := &Runtime{sched: s}
	if s.HasLoss() {
		rt.rng = make([]*lossRNG, k)
		for p := 0; p < k; p++ {
			if s.Loss(cell.Plane(p)) > 0 {
				rt.rng[p] = newLossRNG(s.seed, p)
			}
		}
	}
	return rt
}

// Due returns the events to apply at the start of slot t, in canonical
// order, advancing the cursor past them. The returned slice is a view into
// the schedule's storage; it is empty on slots with no events and the call
// never allocates.
func (r *Runtime) Due(t cell.Time) []Event {
	evs := r.sched.events
	lo := r.idx
	for r.idx < len(evs) && evs[r.idx].Slot <= t {
		r.idx++
	}
	return evs[lo:r.idx]
}

// Next returns the slot of the earliest scheduled event the cursor has not
// yet applied, or cell.None when the schedule is exhausted. The harness's
// event core uses it to truncate an idle jump at the next fail/recover
// event, so the fault cursor advances exactly as it would have
// in a stepped run.
func (r *Runtime) Next() cell.Time {
	if r.idx >= len(r.sched.events) {
		return cell.None
	}
	return r.sched.events[r.idx].Slot
}

// Lose draws plane p's loss stream and reports whether a cell dispatched
// into it this instant is lost. Planes without a configured loss never
// draw, so adding loss to one plane does not change another plane's stream.
func (r *Runtime) Lose(p cell.Plane) bool {
	if r.rng == nil || int(p) >= len(r.rng) || r.rng[p] == nil {
		return false
	}
	return r.rng[p].float64() < r.sched.Loss(p)
}

// HasLoss reports whether any plane draws a loss stream.
func (r *Runtime) HasLoss() bool { return r.rng != nil }

// lossRNG is a splitmix64 stream: tiny, allocation-free per draw, and
// stable across Go releases (unlike math/rand's unexported algorithms,
// whose sequences this repo must not depend on for reproducibility).
type lossRNG struct{ state uint64 }

// newLossRNG derives an independent stream per (seed, plane).
func newLossRNG(seed int64, plane int) *lossRNG {
	// Golden-ratio offsets decorrelate the per-plane streams even for
	// adjacent small seeds.
	return &lossRNG{state: uint64(seed)*0x9E3779B97F4A7C15 + uint64(plane+1)*0xBF58476D1CE4E5B9}
}

func (r *lossRNG) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (r *lossRNG) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
