package main

import (
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"

	"ppsim"
)

// startDebugServer serves net/http/pprof plus a /telemetry JSON endpoint
// backed by the telemetry aggregator on addr (e.g. "localhost:6060"). It
// returns the bound address so callers (and tests) can use ":0". tel may be
// nil, in which case /telemetry serves the zero snapshot.
func startDebugServer(addr string, tel *ppsim.Telemetry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	// A dedicated mux (delegating /debug/pprof/* to the default mux, where
	// the pprof import registered itself) keeps repeated server starts —
	// tests bind several on port 0 — from panicking on duplicate patterns.
	mux := http.NewServeMux()
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := tel.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintln(os.Stderr, "ppsexp: debug server:", err)
		}
	}()
	return ln.Addr().String(), nil
}
