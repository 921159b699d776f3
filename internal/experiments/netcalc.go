package experiments

import "fmt"

// arrivalCurve is a token-bucket arrival curve alpha(t) = Burst + Rate*t:
// at most alpha(tau) cells arrive in any window of tau slots (tau > 0).
// With serviceCurve and the bounds below it is the fragment of Cruz's
// network calculus the paper relies on (reference [9], "A calculus for
// network delay"): affine arrival curves, rate-latency service curves, and
// the classical delay, backlog and output-burstiness bounds.
//
// The paper uses two of its corollaries directly: the burstiness factor B
// "is also an upper bound on the size of the buffer needed for any
// work-conserving switch" (Section 3, after Definition 3), and a
// work-conserving FCFS switch under (R, B) traffic delays cells at most B
// slots (used in Lemma 4's jitter argument). Experiments E21 and E23 check
// both predictions against measured executions.
//
// The paper's (R, B) leaky-bucket traffic has Rate = R and Burst = B under
// this convention (a window of length tau contains at most tau*R + B cells
// and the window includes its first slot).
type arrivalCurve struct {
	Rate  float64
	Burst float64
}

// fromLeakyBucket converts the paper's (R, B) constraint into the curve
// alpha(tau) = tau*R + B.
func fromLeakyBucket(r float64, b int64) arrivalCurve {
	return arrivalCurve{Rate: r, Burst: float64(b)}
}

// at evaluates alpha(tau) for tau >= 0 (alpha(0) = 0 by convention).
func (a arrivalCurve) at(tau float64) float64 {
	if tau <= 0 {
		return 0
	}
	return a.Burst + a.Rate*tau
}

// serviceCurve is a rate-latency service curve beta(t) = Rate *
// max(0, t-Latency): in any backlogged period of length t the server
// delivers at least beta(t).
type serviceCurve struct {
	Rate    float64
	Latency float64
}

// at evaluates beta(t).
func (s serviceCurve) at(t float64) float64 {
	if t <= s.Latency {
		return 0
	}
	return s.Rate * (t - s.Latency)
}

// validate reports nonsensical curves.
func (a arrivalCurve) validate() error {
	if a.Rate < 0 || a.Burst < 0 {
		return fmt.Errorf("netcalc: arrival curve needs nonnegative rate and burst, got (%g, %g)", a.Rate, a.Burst)
	}
	return nil
}

// validate reports nonsensical curves.
func (s serviceCurve) validate() error {
	if s.Rate <= 0 || s.Latency < 0 {
		return fmt.Errorf("netcalc: service curve needs positive rate and nonnegative latency, got (%g, %g)", s.Rate, s.Latency)
	}
	return nil
}

// delayBound returns the maximum delay (the horizontal deviation between
// alpha and beta): Latency + Burst/Rate, finite only when the arrival rate
// does not exceed the service rate.
func delayBound(a arrivalCurve, s serviceCurve) (float64, error) {
	if err := a.validate(); err != nil {
		return 0, err
	}
	if err := s.validate(); err != nil {
		return 0, err
	}
	if a.Rate > s.Rate {
		return 0, fmt.Errorf("netcalc: arrival rate %g exceeds service rate %g: delay unbounded", a.Rate, s.Rate)
	}
	return s.Latency + a.Burst/s.Rate, nil
}

// backlogBound returns the maximum backlog (the vertical deviation):
// Burst + Rate*Latency.
func backlogBound(a arrivalCurve, s serviceCurve) (float64, error) {
	if err := a.validate(); err != nil {
		return 0, err
	}
	if err := s.validate(); err != nil {
		return 0, err
	}
	if a.Rate > s.Rate {
		return 0, fmt.Errorf("netcalc: arrival rate %g exceeds service rate %g: backlog unbounded", a.Rate, s.Rate)
	}
	return a.Burst + a.Rate*s.Latency, nil
}

// outputCurve returns the arrival curve of the departing stream (Cruz's
// output burstiness theorem): the rate is preserved and the burst inflates
// to Burst + Rate*Latency — the backlog bound, since everything queued can
// leave back-to-back.
func outputCurve(a arrivalCurve, s serviceCurve) (arrivalCurve, error) {
	if _, err := backlogBound(a, s); err != nil {
		return arrivalCurve{}, err
	}
	return arrivalCurve{Rate: a.Rate, Burst: a.Burst + a.Rate*s.Latency}, nil
}

// convolve concatenates two rate-latency servers: the end-to-end service
// curve has the bottleneck rate and the summed latencies (min-plus
// convolution of rate-latency curves).
func convolve(s1, s2 serviceCurve) (serviceCurve, error) {
	if err := s1.validate(); err != nil {
		return serviceCurve{}, err
	}
	if err := s2.validate(); err != nil {
		return serviceCurve{}, err
	}
	rate := s1.Rate
	if s2.Rate < rate {
		rate = s2.Rate
	}
	return serviceCurve{Rate: rate, Latency: s1.Latency + s2.Latency}, nil
}

// oqOutputPort is the service curve of one output of the work-conserving
// reference switch: rate R = 1 cell per slot, zero latency.
func oqOutputPort() serviceCurve { return serviceCurve{Rate: 1, Latency: 0} }

// ppsPlanePath is the service curve one plane offers a single output under
// the model's output constraint: one cell per r' slots once scheduled —
// rate 1/r'. Latency captures the worst wait for the line to free: r'-1.
func ppsPlanePath(rPrime int64) serviceCurve {
	return serviceCurve{Rate: 1 / float64(rPrime), Latency: float64(rPrime - 1)}
}

// ppsAggregate is the aggregate service K planes give one output when the
// load is spread across all of them: rate K/r' = S, latency r'-1. The
// concentration scenarios of the paper are precisely executions where this
// aggregate is not realized because a demultiplexor maps everything onto a
// single ppsPlanePath.
func ppsAggregate(k int, rPrime int64) serviceCurve {
	return serviceCurve{Rate: float64(k) / float64(rPrime), Latency: float64(rPrime - 1)}
}
