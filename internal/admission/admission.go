// Package admission models the policy layer evaluated in front of the
// demultiplexors: every offered arrival is either admitted into the PPS (and
// the shadow reference switch — both see the identical admitted stream) or
// turned away before it is stamped. Three policies compose:
//
//   - always-admit: the zero Spec. No state, no decisions, byte-identical
//     runs (pinned by the harness's inertness test).
//   - token-bucket: a deterministic integer token bucket per input, plus an
//     optional aggregate bucket over the whole switch. Rates are exact
//     rationals (num/den cells per slot) and refill is computed in closed
//     form from the gap since the previous decision, so the event engine —
//     which never executes idle slots — makes exactly the decisions a
//     stepped run would.
//   - deadline-drop: cells carry absolute slot deadlines (assigned by the
//     traffic deadline wrapper); a cell whose deadline has already passed is
//     refused at admission, and one that expires inside the fabric is
//     reclassified at egress instead of counting toward delay statistics.
//
// A Spec is immutable once built and may be shared across runs; the per-run
// mutable token state lives in a Runtime, constructed per execution. All
// arithmetic is integer, so two runs over the same spec — serial,
// stage-parallel or event-driven — admit exactly the same
// cells.
package admission

import (
	"fmt"
	"strconv"
	"strings"

	"ppsim/internal/cell"
)

// Spec is a declarative admission policy. The zero value is always-admit:
// no rate limit, no aggregate limit, no deadline enforcement. Build it
// directly or via ParseSpec; a built Spec is immutable and may be shared
// across runs and goroutines.
type Spec struct {
	// RateNum/RateDen is the per-input token rate in cells per slot, as an
	// exact rational (e.g. 1/2 = one cell every two slots). RateNum == 0
	// (with RateDen 0 or 1) disables per-input rate limiting.
	RateNum int64
	RateDen int64
	// Burst is the per-input bucket depth in cells: the largest back-to-back
	// burst an idle input may inject. Meaningful only with a per-input rate;
	// it then must be >= 1 (a zero-depth bucket could never admit anything).
	Burst int64
	// AggRateNum/AggRateDen and AggBurst describe the aggregate bucket
	// shared by all inputs, in the same units. Zero disables it.
	AggRateNum int64
	AggRateDen int64
	AggBurst   int64
	// DeadlineDrop enables deadline enforcement: arrivals whose deadline has
	// already passed are refused at admission, and admitted cells that
	// depart after their deadline are reclassified as expired at egress
	// (excluded from delay statistics, like fault drops). Cells without a
	// deadline stamp are never touched.
	DeadlineDrop bool
}

// Empty reports whether the spec is always-admit: nothing to evaluate, so
// the harness skips the policy entirely and runs are byte-identical to a
// run with no admission configuration at all.
func (s *Spec) Empty() bool {
	if s == nil {
		return true
	}
	return s.RateNum == 0 && s.AggRateNum == 0 && !s.DeadlineDrop
}

// hasRate reports whether any token bucket (per-input or aggregate) is
// configured.
func (s *Spec) hasRate() bool {
	return s != nil && (s.RateNum > 0 || s.AggRateNum > 0)
}

// Name derives the policy name the reports echo: "always", "token-bucket",
// "deadline-drop", or "token-bucket+deadline-drop".
func (s *Spec) Name() string {
	switch {
	case s.Empty():
		return "always"
	case s.hasRate() && s.DeadlineDrop:
		return "token-bucket+deadline-drop"
	case s.hasRate():
		return "token-bucket"
	default:
		return "deadline-drop"
	}
}

// Validate reports spec errors: negative or zero-denominator rates, bursts
// missing or non-positive where a rate demands a bucket, and bursts given
// without a rate to refill them.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if err := validBucket("rate", s.RateNum, s.RateDen, s.Burst); err != nil {
		return err
	}
	return validBucket("agg-rate", s.AggRateNum, s.AggRateDen, s.AggBurst)
}

func validBucket(what string, num, den, burst int64) error {
	if num < 0 || den < 0 {
		return fmt.Errorf("admission: negative %s %d/%d", what, num, den)
	}
	if num > 0 {
		if den == 0 {
			return fmt.Errorf("admission: %s %d has a zero denominator", what, num)
		}
		if burst < 1 {
			return fmt.Errorf("admission: %s %d/%d needs a burst >= 1 (got %d)", what, num, den, burst)
		}
		if num > maxRateTerm || den > maxRateTerm || burst > maxRateTerm {
			return fmt.Errorf("admission: %s terms must be <= %d (got %d/%d burst %d)", what, int64(maxRateTerm), num, den, burst)
		}
	} else if den > 1 || burst != 0 {
		return fmt.Errorf("admission: %s burst/denominator given without a rate", what)
	}
	return nil
}

// maxRateTerm bounds every rate numerator, denominator and burst so the
// scaled token arithmetic (tokens are counted in 1/den units, refill
// multiplies num by an elapsed-slot gap clamped near the bucket capacity)
// can never overflow int64 even across the longest representable run.
const maxRateTerm = 1 << 30

// String renders the spec in the grammar accepted by ParseSpec; the zero
// spec renders as the empty string (always-admit).
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	var parts []string
	if s.RateNum > 0 {
		parts = append(parts, "rate:"+rat(s.RateNum, s.RateDen), fmt.Sprintf("burst:%d", s.Burst))
	}
	if s.AggRateNum > 0 {
		parts = append(parts, "agg-rate:"+rat(s.AggRateNum, s.AggRateDen), fmt.Sprintf("agg-burst:%d", s.AggBurst))
	}
	if s.DeadlineDrop {
		parts = append(parts, "deadline")
	}
	return strings.Join(parts, ",")
}

func rat(num, den int64) string {
	if den == 1 {
		return strconv.FormatInt(num, 10)
	}
	return fmt.Sprintf("%d/%d", num, den)
}

// ParseSpec parses the comma-separated admission spec grammar used by the
// -admission CLI flags:
//
//	rate:N or rate:N/D    per-input token rate in cells per slot
//	burst:B               per-input bucket depth in cells (requires rate)
//	agg-rate:N or N/D     aggregate rate over all inputs
//	agg-burst:B           aggregate bucket depth (requires agg-rate)
//	deadline              drop cells past their deadline (admission + egress)
//	always                explicit always-admit (must stand alone)
//
// Example: "rate:1/2,burst:16,agg-rate:8,agg-burst:64,deadline".
// The empty string and "always" parse to the zero always-admit spec.
// ParseSpec validates the assembled spec before returning it, so a parsed
// spec needs no separate Validate call.
func ParseSpec(spec string) (*Spec, error) {
	s := &Spec{}
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "always" {
		return s, nil
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		verb, rest, cut := strings.Cut(item, ":")
		switch verb {
		case "deadline":
			if cut {
				return nil, fmt.Errorf("admission: %q takes no argument", item)
			}
			s.DeadlineDrop = true
			continue
		case "always":
			return nil, fmt.Errorf("admission: %q cannot combine with other items", verb)
		}
		if !cut {
			return nil, fmt.Errorf("admission: %q is not VERB:ARGS", item)
		}
		switch verb {
		case "rate":
			num, den, err := parseRat(rest)
			if err != nil {
				return nil, fmt.Errorf("admission: bad rate in %q: %v", item, err)
			}
			s.RateNum, s.RateDen = num, den
			if s.Burst == 0 {
				s.Burst = 1
			}
		case "burst":
			b, err := strconv.ParseInt(rest, 10, 64)
			if err != nil || b < 1 {
				return nil, fmt.Errorf("admission: bad burst %q in %q", rest, item)
			}
			s.Burst = b
		case "agg-rate":
			num, den, err := parseRat(rest)
			if err != nil {
				return nil, fmt.Errorf("admission: bad agg-rate in %q: %v", item, err)
			}
			s.AggRateNum, s.AggRateDen = num, den
			if s.AggBurst == 0 {
				s.AggBurst = 1
			}
		case "agg-burst":
			b, err := strconv.ParseInt(rest, 10, 64)
			if err != nil || b < 1 {
				return nil, fmt.Errorf("admission: bad agg-burst %q in %q", rest, item)
			}
			s.AggBurst = b
		default:
			return nil, fmt.Errorf("admission: unknown verb %q in %q (want rate, burst, agg-rate, agg-burst, deadline or always)", verb, item)
		}
	}
	// A lone burst (no rate) is meaningless; surface it as the same error
	// Validate would give instead of silently always-admitting.
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseRat(s string) (num, den int64, err error) {
	numStr, denStr, cut := strings.Cut(s, "/")
	num, err = strconv.ParseInt(numStr, 10, 64)
	if err != nil || num < 1 {
		return 0, 0, fmt.Errorf("numerator %q must be a positive integer", numStr)
	}
	den = 1
	if cut {
		den, err = strconv.ParseInt(denStr, 10, 64)
		if err != nil || den < 1 {
			return 0, 0, fmt.Errorf("denominator %q must be a positive integer", denStr)
		}
	}
	return num, den, nil
}

// bucket is one deterministic integer token bucket. Tokens are counted in
// units of 1/den cells, so a cell costs den tokens and a slot refills num
// tokens; capacity is burst*den. Refill is lazy and closed-form: the bucket
// remembers the slot of its previous decision and credits the whole gap at
// once, which makes it exact under engines that elide idle slots.
type bucket struct {
	num, den int64
	capacity int64
	tokens   int64
	last     cell.Time
}

func newBucket(num, den, burst int64) bucket {
	return bucket{num: num, den: den, capacity: burst * den, tokens: burst * den, last: 0}
}

// refill credits the slots elapsed since the previous decision. The elapsed
// gap is clamped before the multiply: once gap*num would exceed the missing
// tokens the bucket is simply full, so large idle gaps never overflow.
func (b *bucket) refill(t cell.Time) {
	gap := int64(t - b.last)
	b.last = t
	if gap <= 0 {
		return
	}
	if missing := b.capacity - b.tokens; gap > missing/b.num {
		b.tokens = b.capacity
		return
	}
	b.tokens += gap * b.num
}

// take reports whether den tokens are available at slot t and, if so,
// consumes them.
func (b *bucket) take(t cell.Time) bool {
	b.refill(t)
	if b.tokens < b.den {
		return false
	}
	b.tokens -= b.den
	return true
}

// peek reports availability at slot t without consuming (used to make the
// per-input + aggregate admission atomic: a cell must not drain one bucket
// when the other refuses it).
func (b *bucket) peek(t cell.Time) bool {
	b.refill(t)
	return b.tokens >= b.den
}

func (b *bucket) consume() { b.tokens -= b.den }

// Runtime is the per-run evaluator of one Spec: the per-input and aggregate
// token buckets. A Runtime belongs to exactly one execution; the spec it
// reads stays shared and immutable. Admit is O(1), allocation-free and
// purely integer, so decisions are identical across every engine.
type Runtime struct {
	spec   *Spec
	input  []bucket
	agg    bucket
	hasAgg bool
}

// NewRuntime returns a runtime for an n-input switch. The spec must have
// been validated.
func NewRuntime(s *Spec, n int) *Runtime {
	rt := &Runtime{spec: s}
	if s.RateNum > 0 {
		rt.input = make([]bucket, n)
		for i := range rt.input {
			rt.input[i] = newBucket(s.RateNum, s.RateDen, s.Burst)
		}
	}
	if s.AggRateNum > 0 {
		rt.agg = newBucket(s.AggRateNum, s.AggRateDen, s.AggBurst)
		rt.hasAgg = true
	}
	return rt
}

// Spec returns the immutable spec the runtime evaluates.
func (r *Runtime) Spec() *Spec { return r.spec }

// Admit decides the arrival on input in at slot t: true admits the cell
// (consuming one cell's worth of tokens from every configured bucket),
// false rejects it. The decision is atomic across buckets — a refused cell
// consumes nothing. Slots must be presented in non-decreasing order.
func (r *Runtime) Admit(t cell.Time, in cell.Port) bool {
	if r.input != nil {
		if !r.input[in].peek(t) {
			return false
		}
		if r.hasAgg {
			if !r.agg.peek(t) {
				return false
			}
			r.agg.consume()
		}
		r.input[in].consume()
		return true
	}
	if r.hasAgg {
		return r.agg.take(t)
	}
	return true
}

// Expired reports whether a cell stamped with the given deadline is past it
// at slot t under this runtime's spec (false when deadline enforcement is
// off or the cell carries no deadline; deadline 0 means "none").
func (r *Runtime) Expired(t, deadline cell.Time) bool {
	return r.spec.DeadlineDrop && deadline != 0 && t > deadline
}
