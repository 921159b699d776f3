package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"ppsim"
)

func getBody(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestDebugServerServesMetricsAndPprof pins the debug server's surface:
// /telemetry carries the finished-run totals, pprof is served, and the
// retired /metrics endpoint is gone.
func TestDebugServerServesMetricsAndPprof(t *testing.T) {
	tel := ppsim.NewTelemetry()
	addr, err := startDebugServer("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ppsim.Config{N: 4, K: 2, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "rr"}}
	res, err := ppsim.Run(cfg, ppsim.NewBernoulli(4, 0.5, 100, 1), ppsim.Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	code, body := getBody(t, addr, "/telemetry")
	if code != http.StatusOK {
		t.Fatalf("/telemetry status %d", code)
	}
	var snap ppsim.TelemetrySnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/telemetry not valid JSON: %v\n%s", err, body)
	}
	if !strings.Contains(body, `"totals"`) || snap.Totals.Slots != int64(res.Slots) || snap.Totals.Cells != int64(res.Report.Cells) {
		t.Errorf("/telemetry totals do not match the run (slots %d, cells %d):\n%s", res.Slots, res.Report.Cells, body)
	}
	if code, _ := getBody(t, addr, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
	if code, _ := getBody(t, addr, "/metrics"); code != http.StatusNotFound {
		t.Errorf("/metrics status %d, want 404", code)
	}
}

// TestTelemetryEndpointLiveSnapshot freezes a run mid-flight (the departure
// callback blocks the driving goroutine) and asserts /telemetry serves a
// live snapshot while the run is in progress, then the finished state after.
func TestTelemetryEndpointLiveSnapshot(t *testing.T) {
	tel := ppsim.NewTelemetry()
	addr, err := startDebugServer("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		cfg := ppsim.Config{N: 4, K: 2, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "rr"}}
		first := true
		_, err := ppsim.Run(cfg, ppsim.NewBernoulli(4, 0.5, 200, 1), ppsim.Options{
			Telemetry: tel,
			OnPPSDepart: func(ppsim.Cell) {
				if first {
					first = false
					close(started)
					<-release
				}
			},
		})
		done <- err
	}()

	<-started
	code, body := getBody(t, addr, "/telemetry")
	if code != http.StatusOK {
		t.Fatalf("/telemetry status %d", code)
	}
	var snap ppsim.TelemetrySnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/telemetry not valid JSON: %v\n%s", err, body)
	}
	if snap.RunsStarted != 1 || snap.Active != 1 {
		t.Fatalf("mid-run snapshot should show one active run: %+v", snap)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	_, body = getBody(t, addr, "/telemetry")
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/telemetry not valid JSON after run: %v\n%s", err, body)
	}
	if snap.RunsFinished != 1 || snap.Active != 0 {
		t.Fatalf("post-run snapshot should show the run finished: %+v", snap)
	}
	if snap.Delay.RQD.N == 0 || snap.Delay.Total.N == 0 {
		t.Fatalf("post-run snapshot missing delay histograms: %s", body)
	}
	if !strings.Contains(body, `"interdeparture_gap"`) {
		t.Fatalf("telemetry JSON missing schema field: %s", body)
	}
}
