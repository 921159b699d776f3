// Package stats provides the small set of descriptive statistics the
// experiment harness reports: extrema, mean and percentiles over
// integer-valued samples (delays measured in time-slots).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates integer samples and reports descriptive statistics.
// The zero value is an empty summary ready for use.
type Summary struct {
	samples []int64
	sum     int64
	sorted  bool
}

// Add records one sample.
func (s *Summary) Add(v int64) {
	s.samples = append(s.samples, v)
	s.sum += v
	s.sorted = false
}

// N reports the number of recorded samples.
func (s *Summary) N() int { return len(s.samples) }

// Min returns the smallest sample, or 0 when empty.
func (s *Summary) Min() int64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.samples[0]
}

// Max returns the largest sample, or 0 when empty.
func (s *Summary) Max() int64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.samples[len(s.samples)-1]
}

// Mean returns the arithmetic mean, or 0 when empty.
func (s *Summary) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return float64(s.sum) / float64(len(s.samples))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using the
// nearest-rank method, or 0 when empty.
func (s *Summary) Percentile(p float64) int64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return Percentile(s.samples, p)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of the ascending
// sorted samples by the nearest-rank method, or 0 when empty. This is the
// one percentile implementation in the repo; Summary and every ad-hoc
// sample-slice caller delegate here so the convention cannot drift.
func Percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func (s *Summary) ensureSorted() {
	if s.sorted {
		return
	}
	sort.Slice(s.samples, func(i, j int) bool { return s.samples[i] < s.samples[j] })
	s.sorted = true
}

// Counts is an exact per-value frequency table: Mean and Percentile answer
// bit-identically to a Summary fed the same samples, but no sample is
// retained — memory is one counter per integer between the smallest and the
// largest value seen, which for delays measured in slots is a few KiB where
// a Summary holds 8 bytes per cell. The zero value is empty and ready for
// use; Add allocates only when a sample falls outside the covered range.
type Counts struct {
	lo     int64 // value counted by counts[0]
	counts []uint64
	n      uint64
	sum    int64
}

// Add records one sample.
func (c *Counts) Add(v int64) {
	i := uint64(v - c.lo)
	if i >= uint64(len(c.counts)) { // below lo wraps to a huge index
		c.cover(v)
		i = uint64(v - c.lo)
	}
	c.counts[i]++
	c.n++
	c.sum += v
}

// cover widens the table to include v, at least doubling it on the side v
// fell off so a drifting range costs amortized O(1) per sample.
func (c *Counts) cover(v int64) {
	if len(c.counts) == 0 {
		c.lo, c.counts = v, make([]uint64, 16)
		return
	}
	lo, hi := c.lo, c.lo+int64(len(c.counts))
	size := 2 * int64(len(c.counts))
	if v < lo {
		size = max(size, hi-v)
		lo = hi - size
	} else {
		size = max(size, v+1-lo)
	}
	grown := make([]uint64, size)
	copy(grown[c.lo-lo:], c.counts)
	c.lo, c.counts = lo, grown
}

// Mean returns the arithmetic mean, or 0 when empty.
func (c *Counts) Mean() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.sum) / float64(c.n)
}

// Percentile returns the p-th percentile (0 <= p <= 100) by the nearest-rank
// method of the package-level Percentile, or 0 when empty.
func (c *Counts) Percentile(p float64) int64 {
	if c.n == 0 {
		return 0
	}
	rank := uint64(1)
	if p >= 100 {
		rank = c.n
	} else if p > 0 {
		rank = max(1, uint64(math.Ceil(p/100*float64(c.n))))
	}
	var below uint64
	for i, k := range c.counts {
		if below += k; below >= rank {
			return c.lo + int64(i)
		}
	}
	panic("stats: count table lost samples")
}

// FormatLine renders the shared one-line distribution summary
// "<countLabel>=N min=... mean=... p50=... p99=... max=...". Summary.String
// and ppsim.Distribution.String both delegate here so the format stays
// identical everywhere it appears.
func FormatLine(countLabel string, n int, min int64, mean float64, p50, p99, max int64) string {
	return fmt.Sprintf("%s=%d min=%d mean=%.2f p50=%d p99=%d max=%d",
		countLabel, n, min, mean, p50, p99, max)
}

// String renders "n=... min=... mean=... p99=... max=...".
func (s *Summary) String() string {
	return FormatLine("n", s.N(), s.Min(), s.Mean(), s.Percentile(50), s.Percentile(99), s.Max())
}
