package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestTelemetryNilSafe(t *testing.T) {
	var tel *Telemetry
	tel.RunStarted()
	tel.Tick(5, 1, 2, 0, 2, 0, 0)
	tel.ObserveDelays(NewDelaySet(), NewDelaySet())
	tel.RunFinished(true, 6, 2, 0, 0, 0, 0, 1)
	if snap := tel.Snapshot(); snap != (TelemetrySnapshot{}) {
		t.Fatalf("nil telemetry snapshot not zero: %+v", snap)
	}
}

func TestTelemetryFlushNoDoubleCount(t *testing.T) {
	tel := NewTelemetry()
	cur, prev := NewDelaySet(), NewDelaySet()
	tel.RunStarted()
	for i := int64(0); i < 100; i++ {
		cur.RQD.Record(i % 10)
		if i%25 == 0 {
			tel.ObserveDelays(cur, prev)
		}
	}
	tel.ObserveDelays(cur, prev)
	tel.ObserveDelays(cur, prev) // idempotent once prev caught up
	tel.Tick(99, 0, 100, 0, 100, 0, 0)
	tel.RunFinished(true, 100, 100, 0, 0, 0, 0, 1)
	snap := tel.Snapshot()
	if snap.Delay.RQD.N != 100 {
		t.Fatalf("flushed RQD count = %d, want 100 (no double counting)", snap.Delay.RQD.N)
	}
	if snap.RunsStarted != 1 || snap.RunsFinished != 1 || snap.Active != 0 {
		t.Fatalf("run accounting wrong: %+v", snap)
	}
	if snap.Slot != 99 || snap.Matched != 100 {
		t.Fatalf("gauges wrong: %+v", snap)
	}
}

func TestTelemetryWriteJSONSchema(t *testing.T) {
	tel := NewTelemetry()
	cur, prev := NewDelaySet(), NewDelaySet()
	cur.RQD.Record(3)
	cur.Demux.Record(1)
	tel.ObserveDelays(cur, prev)
	tel.Tick(7, 2, 1, 0, 3, 1, 0)
	var buf bytes.Buffer
	if err := tel.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	for _, key := range []string{"runs_started", "slot", "cells_matched", "cells_admitted", "cells_rejected", "cells_expired", "delay"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("snapshot JSON missing %q: %s", key, buf.String())
		}
	}
	if !strings.Contains(buf.String(), `"rqd"`) || !strings.Contains(buf.String(), `"demux_wait"`) {
		t.Fatalf("delay block missing components: %s", buf.String())
	}
}

// TestTelemetryConcurrentSnapshot exercises mid-run snapshots against
// concurrent ticks and flushes (meaningful under -race).
func TestTelemetryConcurrentSnapshot(t *testing.T) {
	tel := NewTelemetry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur, prev := NewDelaySet(), NewDelaySet()
		for i := int64(0); i < 2000; i++ {
			cur.RQD.Record(i % 64)
			tel.Tick(i, 1, uint64(i), 0, uint64(i), 0, 0)
			if i%128 == 0 {
				tel.ObserveDelays(cur, prev)
			}
		}
		tel.ObserveDelays(cur, prev)
		close(stop)
	}()
	for {
		select {
		case <-stop:
			wg.Wait()
			if got := tel.Snapshot().Delay.RQD.N; got != 2000 {
				t.Fatalf("final RQD count = %d, want 2000", got)
			}
			return
		default:
			_ = tel.Snapshot()
		}
	}
}

func TestGlobalTelemetry(t *testing.T) {
	if GlobalTelemetry() != nil {
		t.Fatal("global telemetry not nil at start")
	}
	tel := NewTelemetry()
	SetGlobalTelemetry(tel)
	if GlobalTelemetry() != tel {
		t.Fatal("global telemetry not installed")
	}
	SetGlobalTelemetry(nil)
	if GlobalTelemetry() != nil {
		t.Fatal("global telemetry not uninstalled")
	}
}

// finishRun plays run i's whole lifecycle into tel: i+1 RQD samples flushed
// in two steps, then totals derived from i — or, for every fourth run, a
// failure whose (garbage) totals must be ignored.
func finishRun(tel *Telemetry, i int) {
	cur, prev := NewDelaySet(), NewDelaySet()
	tel.RunStarted()
	for j := 0; j <= i; j++ {
		cur.RQD.Record(int64(j))
		if j == i/2 {
			tel.ObserveDelays(cur, prev)
		}
	}
	tel.ObserveDelays(cur, prev)
	v := uint64(i)
	tel.RunFinished(i%4 != 3, int64(10*i), v, 2*v, 3*v, 4*v, 5*v, i)
}

// TestRegistryConcurrentUse runs eight goroutines of run lifecycles against
// one Telemetry (meaningful under -race): the totals are exact — every
// successful run counted once, failed ones only in runs_failed.
func TestRegistryConcurrentUse(t *testing.T) {
	const workers, perWorker = 8, 125
	tel := NewTelemetry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * perWorker; i < (w+1)*perWorker; i++ {
				finishRun(tel, i)
				_ = tel.Snapshot()
			}
		}(w)
	}
	wg.Wait()

	want := TelemetrySnapshot{RunsStarted: workers * perWorker, RunsFinished: workers * perWorker}
	var samples int64
	for i := 0; i < workers*perWorker; i++ {
		samples += int64(i + 1)
		if i%4 == 3 {
			want.RunsFailed++
			continue
		}
		v := int64(i)
		want.Totals.Slots += 10 * v
		want.Totals.Cells += v
		want.Totals.Drops += 2 * v
		want.Totals.Rejected += 3 * v
		want.Totals.Expired += 4 * v
		want.Totals.TraceEvents += 5 * v
		want.Totals.PeakPlaneQueue = max(want.Totals.PeakPlaneQueue, v)
	}
	got := tel.Snapshot()
	if got.Delay.RQD.N != samples {
		t.Errorf("delay.rqd.n = %d, want %d (no double count)", got.Delay.RQD.N, samples)
	}
	want.Delay = got.Delay
	if got != want {
		t.Errorf("snapshot = %+v\nwant %+v", got, want)
	}
}

// TestSnapshotDeterminism folds the same runs into two aggregators in
// opposite orders: the snapshots agree, and a snapshot repeats.
func TestSnapshotDeterminism(t *testing.T) {
	a, b := NewTelemetry(), NewTelemetry()
	for i := 0; i < 9; i++ {
		finishRun(a, i)
		finishRun(b, 8-i)
	}
	// The per-slot gauges are last-writer-wins by design; level them.
	a.Tick(7, 0, 1, 2, 3, 4, 5)
	b.Tick(7, 0, 1, 2, 3, 4, 5)
	if sa, sb := a.Snapshot(), b.Snapshot(); sa != sb || sa != a.Snapshot() {
		t.Fatalf("snapshots differ by fold order:\n%+v\n%+v", sa, sb)
	}
}

// objectKeys returns the keys of the JSON object raw in wire order.
func objectKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object (%v, %v): %s", tok, err, raw)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestSnapshotWriteText pins the /telemetry wire schema: the keys that
// predate the totals block keep their names and positions; totals (its own
// keys in order) and runs_failed are appended after delay.
func TestSnapshotWriteText(t *testing.T) {
	tel := NewTelemetry()
	finishRun(tel, 2)
	finishRun(tel, 3) // fails
	var buf bytes.Buffer
	if err := tel.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	wantTop := []string{
		"runs_started", "runs_finished", "runs_active", "slot", "in_flight",
		"cells_matched", "cells_dropped", "cells_admitted", "cells_rejected", "cells_expired",
		"delay", "totals", "runs_failed",
	}
	if got := objectKeys(t, buf.Bytes()); !reflect.DeepEqual(got, wantTop) {
		t.Errorf("top-level keys = %v\nwant %v", got, wantTop)
	}
	if want := `"totals":{"slots":20,"cells":2,"drops":4,"rejected":6,"expired":8,"trace_events":10,"peak_plane_queue":2},"runs_failed":1}`; !strings.HasSuffix(strings.TrimSpace(buf.String()), want) {
		t.Errorf("JSON tail = %s\nwant suffix %s", buf.String(), want)
	}
}
