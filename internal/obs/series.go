package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"ppsim/internal/cell"
)

// DefaultSeriesCapacity bounds a series when the caller passes capacity <= 0.
const DefaultSeriesCapacity = 1 << 16

// Point is one sampled value of a time series.
type Point struct {
	Slot  cell.Time
	Value float64
	// Final marks the forced end-of-run sample: the harness re-samples the
	// last executed slot after the run drains, so a decimated series still
	// ends on post-drain state (a stride that does not divide the final
	// slot would otherwise leave Last() reporting pre-drain values).
	// Consumers of decimated series can use it to distinguish the flushed
	// point from ordinary stride-aligned samples.
	Final bool
}

// Series is a named, ring-buffered time series with stride decimation: only
// slots divisible by the stride are recorded, and once capacity points are
// held the oldest are overwritten. Both knobs keep million-slot soak runs
// bounded. A Series is driven from one goroutine (the run loop).
type Series struct {
	name    string
	stride  cell.Time
	cap     int
	pts     []Point
	start   int
	dropped int
	// force makes the next Observe bypass stride decimation (set by
	// ForceNext for the harness's post-run flush).
	force bool
	// lastSlot/hasLast remember the most recently recorded slot so a
	// forced re-observation of an already-recorded slot marks it final
	// instead of duplicating it.
	lastSlot cell.Time
	hasLast  bool
}

// NewSeries returns an empty series. stride < 1 is treated as 1 (sample
// every slot); capacity <= 0 uses DefaultSeriesCapacity.
func NewSeries(name string, stride cell.Time, capacity int) *Series {
	if stride < 1 {
		stride = 1
	}
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	return &Series{name: name, stride: stride, cap: capacity}
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Stride returns the decimation stride.
func (s *Series) Stride() cell.Time { return s.stride }

// ForceNext makes the next Observe bypass stride decimation, recording (or,
// if that slot is already the latest recorded point, final-marking) the
// sample. The harness arms it on every series before the post-run flush so
// decimated series end on post-drain state.
func (s *Series) ForceNext() { s.force = true }

// Observe records value v for slot and reports whether a new point was
// recorded. Slots decimated by the stride are skipped unless a forced
// sample is pending (ForceNext). A forced observation of the most recently
// recorded slot does not duplicate the point — it marks the existing point
// final and reports false.
func (s *Series) Observe(slot cell.Time, v float64) bool {
	force := s.force
	s.force = false
	if slot%s.stride != 0 && !force {
		return false
	}
	if s.hasLast && slot == s.lastSlot {
		if force && len(s.pts) > 0 {
			s.pts[s.lastIndex()].Final = true
		}
		return false
	}
	s.hasLast, s.lastSlot = true, slot
	p := Point{Slot: slot, Value: v, Final: force}
	if len(s.pts) < s.cap {
		s.pts = append(s.pts, p)
		return true
	}
	s.pts[s.start] = p
	s.start = (s.start + 1) % s.cap
	s.dropped++
	return true
}

// ObserveSpan records value v for every stride-aligned slot in [from, to),
// leaving the ring byte-identical to calling Observe(slot, v) for each slot
// of the span in order. It is the batch path behind the harness's idle
// jumps: during an elided idle interval every probe value is
// constant, so the aligned points can be synthesized in closed form —
// appends while free capacity lasts, then ring arithmetic for the
// overwritten tail — without touching the heap.
func (s *Series) ObserveSpan(from, to cell.Time, v float64) {
	if s.force {
		// A pending forced sample fires on the span's first slot regardless
		// of alignment, exactly as the per-slot path would; delegate it and
		// continue with the remainder.
		if from >= to {
			return
		}
		s.Observe(from, v)
		from++
	}
	if s.hasLast && from <= s.lastSlot {
		from = s.lastSlot + 1
	}
	if from >= to {
		return
	}
	first := from + (s.stride-from%s.stride)%s.stride // first aligned slot >= from
	if first >= to {
		return
	}
	n := int((to-1-first)/s.stride) + 1 // aligned slots in [first, to)
	s.hasLast, s.lastSlot = true, first+cell.Time(n-1)*s.stride
	// Fill free tail capacity by appending.
	k := n
	if free := s.cap - len(s.pts); k > free {
		k = free
	}
	for i := 0; i < k; i++ {
		s.pts = append(s.pts, Point{Slot: first + cell.Time(i)*s.stride, Value: v})
	}
	rem := n - k
	if rem == 0 {
		return
	}
	// Ring-overwrite the remaining rem points. Only the last min(rem, cap)
	// of them survive; write each at the position the per-slot loop would
	// have left it, then advance the start cursor by the full rem.
	m := rem
	if m > s.cap {
		m = s.cap
	}
	base := first + cell.Time(k+rem-m)*s.stride
	for i := 0; i < m; i++ {
		s.pts[(s.start+rem-m+i)%s.cap] = Point{Slot: base + cell.Time(i)*s.stride, Value: v}
	}
	s.start = (s.start + rem) % s.cap
	s.dropped += rem
}

// lastIndex returns the index of the most recently recorded point; only
// valid when the series is non-empty.
func (s *Series) lastIndex() int {
	i := s.start - 1
	if i < 0 {
		i = len(s.pts) - 1
	}
	return i
}

// Len reports the number of retained points.
func (s *Series) Len() int { return len(s.pts) }

// Dropped reports how many points were overwritten by the ring.
func (s *Series) Dropped() int { return s.dropped }

// Points returns the retained points in chronological order.
func (s *Series) Points() []Point {
	out := make([]Point, 0, len(s.pts))
	out = append(out, s.pts[s.start:]...)
	out = append(out, s.pts[:s.start]...)
	return out
}

// Last returns the most recent point; ok is false when empty.
func (s *Series) Last() (Point, bool) {
	if len(s.pts) == 0 {
		return Point{}, false
	}
	return s.pts[s.lastIndex()], true
}

// Max returns the retained point with the largest value (earliest wins on
// ties); ok is false when empty.
func (s *Series) Max() (Point, bool) {
	if len(s.pts) == 0 {
		return Point{}, false
	}
	best := Point{}
	found := false
	for _, p := range s.Points() {
		if !found || p.Value > best.Value {
			best, found = p, true
		}
	}
	return best, true
}

// WriteSeriesCSV streams the series in long format — header
// "series,slot,value", one row per point — the format ppsdiag and ppssim
// emit for plotting.
func WriteSeriesCSV(w io.Writer, series []*Series) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "series,slot,value"); err != nil {
		return err
	}
	for _, s := range series {
		name := s.Name()
		for _, p := range s.Points() {
			if _, err := fmt.Fprintf(bw, "%s,%d,%g\n", name, p.Slot, p.Value); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// jsonSeries is the stable JSON schema for series export.
type jsonSeries struct {
	Series string       `json:"series"`
	Points [][2]float64 `json:"points"` // [slot, value]
}

// WriteSeriesJSON writes the series as a JSON array of
// {"series": name, "points": [[slot, value], ...]} objects, in input order.
func WriteSeriesJSON(w io.Writer, series []*Series) error {
	out := make([]jsonSeries, 0, len(series))
	for _, s := range series {
		js := jsonSeries{Series: s.Name(), Points: make([][2]float64, 0, s.Len())}
		for _, p := range s.Points() {
			js.Points = append(js.Points, [2]float64{float64(p.Slot), p.Value})
		}
		out = append(out, js)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
