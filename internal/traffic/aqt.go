package traffic

import (
	"fmt"

	"ppsim/internal/cell"
)

// AQTExcess measures a finite source against the adversarial queueing
// theory injection model the paper's Discussion references (Borodin et al.,
// Andrews et al.): a (w, rho) adversary may inject, in any window of w
// consecutive slots, at most rho*w cells requiring any single resource —
// here, sharing an input-port or an output-port.
//
// It returns the largest violation margin: max over ports and w-windows of
// (cells - rho*w); a value <= 0 means the stream is (w, rho)-admissible.
//
// The Discussion's claim "our flows satisfy these stronger restrictions as
// well" is the observation that an (R=1, B) leaky-bucket stream is
// (w, rho)-admissible for every rho >= 1 + B/w (window count <= w + B =
// rho*w); TestLeakyBucketIsAQTAdmissible pins it.
func AQTExcess(n int, src Source, w cell.Time, rho float64) (float64, error) {
	if w <= 0 {
		return 0, fmt.Errorf("traffic: AQT window must be positive, got %d", w)
	}
	if rho <= 0 {
		return 0, fmt.Errorf("traffic: AQT rate must be positive, got %g", rho)
	}
	end := src.End()
	if end == cell.None {
		return 0, fmt.Errorf("traffic: cannot measure an unbounded source")
	}
	inCount := make([][]int64, n)
	outCount := make([][]int64, n)
	for p := 0; p < n; p++ {
		inCount[p] = make([]int64, end)
		outCount[p] = make([]int64, end)
	}
	for _, a := range appendSpan(src, nil, 0, end) {
		if err := inSwitch(n, a); err != nil {
			return 0, err
		}
		inCount[a.In][a.T]++
		outCount[a.Out][a.T]++
	}
	worst := float64(0)
	scan := func(counts []int64) {
		var window int64
		for t := cell.Time(0); t < end; t++ {
			window += counts[t]
			if t >= w {
				window -= counts[t-w]
			}
			// The adversary model speaks of windows of exactly w
			// consecutive slots; shorter prefixes are covered by any
			// full window containing them.
			if t+1 < w && end >= w {
				continue
			}
			if ex := float64(window) - rho*float64(w); ex > worst {
				worst = ex
			}
		}
	}
	for p := 0; p < n; p++ {
		scan(inCount[p])
		scan(outCount[p])
	}
	return worst, nil
}
