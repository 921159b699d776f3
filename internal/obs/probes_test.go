package obs

import (
	"fmt"
	"reflect"
	"testing"

	"ppsim/internal/cell"
)

// fakeView is a scriptable SlotView.
type fakeView struct {
	slot     cell.Time
	n, k     int
	backlog  []int
	peak     []int
	depth    []int
	pulls    []int64
	dispatch []uint64
	pps, sh  int
	rqd      int64
	rqdOK    bool
	live     int
	dropped  uint64
	admitted uint64
	rejected uint64
	expired  uint64
}

func (v *fakeView) Slot() cell.Time           { return v.slot }
func (v *fakeView) Ports() int                { return v.n }
func (v *fakeView) Planes() int               { return v.k }
func (v *fakeView) PlaneBacklog(k int) int    { return v.backlog[k] }
func (v *fakeView) PlanePeak(k int) int       { return v.peak[k] }
func (v *fakeView) InputDepth(i int) int      { return v.depth[i] }
func (v *fakeView) OutputPulls(j int) int64   { return v.pulls[j] }
func (v *fakeView) DispatchedTo(k int) uint64 { return v.dispatch[k] }
func (v *fakeView) PPSInFlight() int          { return v.pps }
func (v *fakeView) ShadowInFlight() int       { return v.sh }
func (v *fakeView) FrontRQD() (int64, bool)   { return v.rqd, v.rqdOK }
func (v *fakeView) LivePlanes() int           { return v.live }
func (v *fakeView) DroppedTotal() uint64      { return v.dropped }
func (v *fakeView) AdmittedTotal() uint64     { return v.admitted }
func (v *fakeView) RejectedTotal() uint64     { return v.rejected }
func (v *fakeView) ExpiredTotal() uint64      { return v.expired }

func newFakeView(n, k int) *fakeView {
	return &fakeView{
		n: n, k: k, live: k,
		backlog:  make([]int, k),
		peak:     make([]int, k),
		depth:    make([]int, n),
		pulls:    make([]int64, n),
		dispatch: make([]uint64, k),
	}
}

func seriesByName(probes []*Probe, name string) *Series {
	for _, s := range CollectSeries(probes) {
		if s.Name() == name {
			return s
		}
	}
	return nil
}

func TestStandardProbesNamesAndCount(t *testing.T) {
	probes := StandardProbes(4, 3, 1, 16)
	all := CollectSeries(probes)
	want := []string{
		"plane_backlog[0]", "plane_backlog[1]", "plane_backlog[2]",
		"plane_peak_queue",
		"input_depth_total", "input_depth_max",
		"mux_pulls",
		"front_rqd",
		"dispatch_imbalance",
		"pps_in_flight", "shadow_in_flight",
		"live_planes", "drops_total",
		"admitted_total", "rejected_total", "expired_total",
	}
	if len(all) != len(want) {
		t.Fatalf("got %d series, want %d", len(all), len(want))
	}
	for i, s := range all {
		if s.Name() != want[i] {
			t.Errorf("series[%d] = %q, want %q", i, s.Name(), want[i])
		}
	}
}

func TestPlaneAndInputProbes(t *testing.T) {
	probes := StandardProbes(2, 2, 1, 16)
	v := newFakeView(2, 2)
	v.slot = 0
	v.backlog = []int{3, 1}
	v.peak = []int{2, 5}
	v.depth = []int{4, 1}
	for _, p := range probes {
		p.Sample(v)
	}
	if s := seriesByName(probes, "plane_backlog[0]"); s.Points()[0].Value != 3 {
		t.Errorf("plane_backlog[0] = %g, want 3", s.Points()[0].Value)
	}
	if s := seriesByName(probes, "plane_peak_queue"); s.Points()[0].Value != 5 {
		t.Errorf("plane_peak_queue = %g, want 5", s.Points()[0].Value)
	}
	if s := seriesByName(probes, "input_depth_total"); s.Points()[0].Value != 5 {
		t.Errorf("input_depth_total = %g, want 5", s.Points()[0].Value)
	}
	if s := seriesByName(probes, "input_depth_max"); s.Points()[0].Value != 4 {
		t.Errorf("input_depth_max = %g, want 4", s.Points()[0].Value)
	}
}

// TestMuxPullProbeDeltas checks the pull probe reports rates (deltas of the
// cumulative count), including across decimated strides.
func TestMuxPullProbeDeltas(t *testing.T) {
	p := newMuxPullProbe(2, 16)
	v := newFakeView(2, 1)
	cum := []int64{0, 3, 5, 9, 12}
	for slot, c := range cum {
		v.slot = cell.Time(slot)
		v.pulls = []int64{c, 0}
		p.Sample(v)
	}
	pts := p.Series()[0].Points()
	// Sampled at slots 0, 2, 4: deltas 0, 5-0, 12-5.
	want := []float64{0, 5, 7}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	for i, w := range want {
		if pts[i].Value != w {
			t.Errorf("pts[%d] = %g, want %g", i, pts[i].Value, w)
		}
	}
}

func TestFrontRQDProbeSkipsIdleSlots(t *testing.T) {
	p := NewFrontRQDProbe(1, 16)
	v := newFakeView(1, 1)
	v.slot, v.rqdOK = 0, false
	p.Sample(v)
	v.slot, v.rqd, v.rqdOK = 1, 6, true
	p.Sample(v)
	pts := p.Series()[0].Points()
	if len(pts) != 1 || pts[0].Slot != 1 || pts[0].Value != 6 {
		t.Errorf("front_rqd = %+v, want one point (1, 6)", pts)
	}
}

func TestDispatchImbalanceProbe(t *testing.T) {
	p := newDispatchImbalanceProbe(1, 16)
	v := newFakeView(1, 4)
	v.dispatch = []uint64{10, 2, 2, 2} // total 16, ideal 4, max 10
	p.Sample(v)
	if got := p.Series()[0].Points()[0].Value; got != 6 {
		t.Errorf("imbalance = %g, want 6", got)
	}
}

func TestInFlightProbe(t *testing.T) {
	p := NewInFlightProbe(1, 16)
	v := newFakeView(1, 1)
	v.pps, v.sh = 9, 4
	p.Sample(v)
	if got := p.Series()[0].Points()[0].Value; got != 9 {
		t.Errorf("pps_in_flight = %g, want 9", got)
	}
	if got := p.Series()[1].Points()[0].Value; got != 4 {
		t.Errorf("shadow_in_flight = %g, want 4", got)
	}
}

// TestMuxPullProbeIdleSpanMatchesPerSlot is the span contract: SampleIdleSpan
// must leave every series exactly as per-slot Sample calls would. The rate
// series is the delicate one — the span replays per slot until the first
// recorded point (which flushes the pull window accumulated since the
// previous sample), then switches to the closed-form zero-rate span — so it
// is pinned on an absolute schedule first; then every StandardProbes series
// is held to a per-slot twin across strides.
func TestMuxPullProbeIdleSpanMatchesPerSlot(t *testing.T) {
	t.Run("mux_pulls", testMuxPullIdleSpan)
	for _, stride := range []cell.Time{1, 3, 4} {
		t.Run(fmt.Sprintf("standard/stride%d", stride), func(t *testing.T) { testStandardIdleSpan(t, stride) })
	}
}

// testStandardIdleSpan drives the full standard set through SampleIdleSpan
// and a twin set through per-slot Sample over the same schedule: active
// bursts in which every reading moves, idle spans long enough to overwrite
// the rings several times, a span with no aligned slot, a span opening on a
// pending forced sample, and the harness's final flush.
func testStandardIdleSpan(t *testing.T, stride cell.Time) {
	const n, k, capacity = 3, 2, 8
	p, twin := StandardProbes(n, k, stride, capacity), StandardProbes(n, k, stride, capacity)
	v := newFakeView(n, k)
	slot := cell.Time(0)
	sampleBoth := func() {
		for i := range p {
			p[i].Sample(v)
			twin[i].Sample(v)
		}
	}
	active := func(slots int) {
		for ; slots > 0; slots-- {
			x := int(slot)
			v.slot = slot
			for j := range v.backlog {
				v.backlog[j] = (x + j) % 5
				v.peak[j] = max(v.peak[j], v.backlog[j])
				v.dispatch[j] += uint64(x * (j + 1) % 3)
			}
			for i := range v.depth {
				v.depth[i] = (7*x + i) % 4
				v.pulls[i] += int64((x + i) % 3)
			}
			v.pps, v.sh = x%6+1, x%4
			v.rqd, v.rqdOK = int64(x%7-2), x%3 != 0
			v.live, v.dropped = k-x%2, v.dropped+uint64(x%2)
			v.admitted, v.rejected, v.expired = v.admitted+uint64(x%4), v.rejected+uint64(x%2), v.expired+uint64(x%3/2)
			sampleBoth()
			slot++
		}
	}
	// idle quiets the view as an idle jump finds it — both switches empty,
	// no departure, cumulative counters frozen — and covers [slot, slot+length).
	idle := func(length cell.Time) {
		clear(v.backlog)
		clear(v.depth)
		v.pps, v.sh, v.rqdOK = 0, 0, false
		v.slot = slot
		for _, pb := range p {
			pb.SampleIdleSpan(v, slot, slot+length)
		}
		for end := slot + length; slot < end; slot++ {
			v.slot = slot
			for _, pb := range twin {
				pb.Sample(v)
			}
		}
	}
	force := func() {
		for _, s := range append(CollectSeries(p), CollectSeries(twin)...) {
			s.ForceNext()
		}
	}

	active(5)
	idle(3*capacity*stride + 2)
	active(2)
	if stride > 1 {
		for slot%stride == 0 {
			active(1)
		}
		idle(stride - slot%stride) // ends just before the next aligned slot
		active(1)
	}
	force()
	idle(2*stride + 1)
	active(3)
	idle(stride + 1)
	active(int(stride))
	v.slot = slot - 1
	force()
	sampleBoth()

	got, want := CollectSeries(p), CollectSeries(twin)
	if got[0].Dropped() == 0 {
		t.Fatalf("%s kept every point; the schedule must cross the ring capacity", got[0].Name())
	}
	for i, s := range got {
		if !reflect.DeepEqual(s.Points(), want[i].Points()) || s.Dropped() != want[i].Dropped() {
			t.Errorf("%s: span and per-slot rings diverge (dropped %d vs %d)\nspan: %+v\ntwin: %+v",
				s.Name(), s.Dropped(), want[i].Dropped(), s.Points(), want[i].Points())
		}
	}
}

func testMuxPullIdleSpan(t *testing.T) {
	const stride = 4
	p := newMuxPullProbe(stride, 16)
	twin := newMuxPullProbe(stride, 16)
	v := newFakeView(2, 1)

	drive := func(slot cell.Time, cum int64) {
		v.slot, v.pulls = slot, []int64{cum, 0}
		p.Sample(v)
		twin.Sample(v)
	}
	idle := func(from, to cell.Time, cum int64) {
		v.pulls = []int64{cum, 0}
		p.SampleIdleSpan(v, from, to)
		for t := from; t < to; t++ {
			v.slot = t
			twin.Sample(v)
		}
	}

	// Active slots 0..2 accumulate pulls; only slot 0 is stride-aligned.
	drive(0, 0)
	drive(1, 3)
	drive(2, 5)
	// Idle span starting before the first recorded point of the window:
	// slot 3 is unaligned (replayed, records nothing), slot 4 records the
	// flush of the 5 pulls since slot 0, slots 5..14 are the zero-rate tail
	// (recording at 8 and 12).
	idle(3, 15, 5)
	// A short span with no aligned slot must record nothing and must NOT
	// consume the window: pulls resume and the next aligned sample covers
	// everything since the last recorded point.
	drive(16, 9)
	idle(17, 19, 9)
	drive(20, 14)

	got, want := p.Series()[0].Points(), twin.Series()[0].Points()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("span and per-slot rings diverge:\nspan: %+v\ntwin: %+v", got, want)
	}
	// Pin the absolute schedule too, so a twin-side bug cannot mask one in
	// the span path: flush of 5 at slot 4, zeros across the idle tail, 4+5
	// pulls flushed at slot 20.
	wantAbs := []struct {
		slot cell.Time
		val  float64
	}{{0, 0}, {4, 5}, {8, 0}, {12, 0}, {16, 4}, {20, 5}}
	if len(got) != len(wantAbs) {
		t.Fatalf("got %d points, want %d: %+v", len(got), len(wantAbs), got)
	}
	for i, w := range wantAbs {
		if got[i].Slot != w.slot || got[i].Value != w.val {
			t.Errorf("pts[%d] = %+v, want slot %d value %g", i, got[i], w.slot, w.val)
		}
	}
}
