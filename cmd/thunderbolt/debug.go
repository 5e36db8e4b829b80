package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"

	"thunderbolt/internal/metrics"
	"thunderbolt/internal/node"
)

// Debug listener (-debug-addr). Serves the observability surface of
// every replica hosted by this process — one node in TCP mode, all N
// in -local mode:
//
//	/metrics       registry snapshot as JSON, keyed by replica ID; in
//	               -local mode the simulated network's own registry
//	               under "network" (deliveries, parks, kicks, lag)
//	/debug/flight  flight-recorder text dump (?node=i ?last=n)
//	/debug/pprof/  standard pprof handlers
//
// Reads are snapshot-based (Registry.Snapshot, FlightRecorder.Dump),
// so scraping never blocks the event loop beyond a bucket copy.

// startDebugServer serves the debug endpoints for nodes (and, when
// non-nil, the simulated network's registry) on addr in a background
// goroutine. A failure to bind is fatal: asking for
// -debug-addr and silently running without it would defeat the point.
func startDebugServer(addr string, nodes []*node.Node, network *metrics.Registry) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		out := make(map[string]any, len(nodes)+1)
		for _, n := range nodes {
			out[strconv.Itoa(int(n.ID()))] = n.Metrics().Snapshot()
		}
		if network != nil {
			out["network"] = network.Snapshot()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		last := 64
		if v := r.URL.Query().Get("last"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				last = n
			}
		}
		only := -1
		if v := r.URL.Query().Get("node"); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				only = n
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, n := range nodes {
			if only >= 0 && int(n.ID()) != only {
				continue
			}
			fmt.Fprintf(w, "=== node %d ===\n", n.ID())
			fmt.Fprint(w, n.Flight().Dump(last))
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	go func() {
		log.Printf("debug listener on http://%s (/metrics /debug/flight /debug/pprof)", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Fatalf("debug listener: %v", err)
		}
	}()
}
