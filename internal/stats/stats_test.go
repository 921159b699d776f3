package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 {
		t.Error("empty summary should report zeros")
	}
	if s.Percentile(50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []int64{5, 1, 9, 3, 7} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Errorf("N = %d", s.N())
	}
	if s.Min() != 1 || s.Max() != 9 {
		t.Errorf("Min/Max = %d/%d", s.Min(), s.Max())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %f", s.Mean())
	}
	if got := s.Percentile(50); got != 5 {
		t.Errorf("p50 = %d", got)
	}
	if got := s.Percentile(100); got != 9 {
		t.Errorf("p100 = %d", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %d", got)
	}
}

func TestSummaryAddAfterSort(t *testing.T) {
	var s Summary
	s.Add(10)
	_ = s.Max() // forces sort
	s.Add(1)
	if s.Min() != 1 {
		t.Error("Add after Max must invalidate sorted cache")
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.Add(3)
	if got := s.String(); !strings.Contains(got, "n=1") || !strings.Contains(got, "max=3") {
		t.Errorf("String = %q", got)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotone(t *testing.T) {
	prop := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		var s Summary
		for _, v := range vals {
			s.Add(int64(v))
		}
		prev := s.Percentile(0)
		for p := 5.0; p <= 100; p += 5 {
			cur := s.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return s.Percentile(0) == s.Min() && s.Percentile(100) == s.Max()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: min/max/mean agree with a direct computation.
func TestSummaryMatchesDirect(t *testing.T) {
	prop := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		var s Summary
		sorted := make([]int64, len(vals))
		var sum int64
		for i, v := range vals {
			s.Add(int64(v))
			sorted[i] = int64(v)
			sum += int64(v)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		wantMean := float64(sum) / float64(len(vals))
		return s.Min() == sorted[0] &&
			s.Max() == sorted[len(sorted)-1] &&
			math.Abs(s.Mean()-wantMean) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestCountsMatchSummary pins the count table to the retained-sample
// Summary it replaced in the recorder: same mean, same nearest-rank
// percentiles, bit for bit, on signed samples in any order.
func TestCountsMatchSummary(t *testing.T) {
	prop := func(raw []int16) bool {
		var s Summary
		var c Counts
		for _, v := range raw {
			s.Add(int64(v))
			c.Add(int64(v))
		}
		if c.Mean() != s.Mean() {
			return false
		}
		for _, p := range []float64{0, 50, 99, 99.9, 100} {
			if c.Percentile(p) != s.Percentile(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCountsDriftingRange walks the covered range far in both directions,
// so the table regrows on each side several times with earlier counts kept.
func TestCountsDriftingRange(t *testing.T) {
	var s Summary
	var c Counts
	for i := int64(0); i < 2000; i++ {
		for _, v := range []int64{i, -3 * i, i / 7} {
			s.Add(v)
			c.Add(v)
		}
	}
	if c.Mean() != s.Mean() {
		t.Errorf("Mean = %v, want %v", c.Mean(), s.Mean())
	}
	for p := 0.0; p <= 100; p += 0.5 {
		if got, want := c.Percentile(p), s.Percentile(p); got != want {
			t.Errorf("Percentile(%v) = %d, want %d", p, got, want)
		}
	}
}
