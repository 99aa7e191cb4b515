// The server's telemetry face: the per-server obs.Registry every layer
// registers into, the process-wide sampled families (scan engine, hash
// kernels, scanner cache, runtime), the GET /metrics exposition
// endpoint, and the optional /debug/pprof mount.
package server

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"repro/internal/keyhash"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// registerProcessMetrics wires the sampled families whose truth lives
// outside the registry: process counters in internal/pipeline and
// internal/keyhash (the scan hot path stays free of registry plumbing —
// it ticks package atomics and the registry reads them at scrape time),
// the scanner cache, and runtime vitals.
func (s *Server) registerProcessMetrics() {
	r := s.obs
	r.Sampled("wm_uptime_seconds", "Seconds since the server started.", obs.TypeGauge,
		func(emit obs.Emit) { emit(time.Since(s.started).Seconds()) })
	r.Sampled("wm_process_goroutines", "Goroutines in this process.", obs.TypeGauge,
		func(emit obs.Emit) { emit(float64(runtime.NumGoroutine())) })
	r.Sampled("wm_scan_tuples_total",
		"Tuples pushed through this process's scan and embed pipelines.", obs.TypeCounter,
		func(emit obs.Emit) { t, _ := pipeline.Stats(); emit(float64(t)) })
	r.Sampled("wm_scan_blocks_total",
		"Scan blocks (progress ticks) processed by this process's pipelines.", obs.TypeCounter,
		func(emit obs.Emit) { _, b := pipeline.Stats(); emit(float64(b)) })
	r.Sampled("wm_keyhash_kernel_calls_total",
		"Batched HashColumn invocations, by hash-kernel backend.", obs.TypeCounter,
		func(emit obs.Emit) {
			for kind, kc := range keyhash.KernelStats() {
				emit(float64(kc.Calls), string(kind))
			}
		}, "kernel")
	r.Sampled("wm_keyhash_values_hashed_total",
		"Key values hashed, by hash-kernel backend.", obs.TypeCounter,
		func(emit obs.Emit) {
			for kind, kc := range keyhash.KernelStats() {
				emit(float64(kc.Values), string(kind))
			}
		}, "kernel")
	r.Sampled("wm_keyhash_calibration_hashes_per_sec",
		"Calibrated keyed-hash throughput of each available backend (startup micro-benchmark, cached for the process lifetime).", obs.TypeGauge,
		func(emit obs.Emit) {
			for kind, rate := range keyhash.Calibrate().HashesPerSec {
				emit(rate, string(kind))
			}
		}, "kernel")
	r.Sampled("wm_keyhash_selected_kernel",
		"1 for the hash backend scans on this server run on — the calibration winner, or the pinned -kernel override.", obs.TypeGauge,
		func(emit obs.Emit) {
			kind := s.cfg.HashKernel
			if kind == keyhash.KernelAuto {
				kind = keyhash.Calibrate().Kind
			}
			emit(1, string(kind))
		}, "kernel")
	if s.cache != nil {
		r.Sampled("wm_scanner_cache_entries",
			"Prepared certificates held by the scanner cache.", obs.TypeGauge,
			func(emit obs.Emit) { emit(float64(s.cache.Stats().Entries)) })
		r.Sampled("wm_scanner_cache_hits_total",
			"Scanner-cache lookups served from cache.", obs.TypeCounter,
			func(emit obs.Emit) { emit(float64(s.cache.Stats().Hits)) })
		r.Sampled("wm_scanner_cache_misses_total",
			"Scanner-cache lookups that derived fresh state.", obs.TypeCounter,
			func(emit obs.Emit) { emit(float64(s.cache.Stats().Misses)) })
	}
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obs.WritePrometheus(w) //nolint:errcheck // a dropped scrape has no one to tell
}

// mountPprof exposes net/http/pprof under /debug/pprof/ on the server's
// own mux, so profiles ride the same listener (and middleware) as the
// API — gated behind wmserver -pprof because profiles expose internals.
func (s *Server) mountPprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// routeLabel maps a mux pattern to a bounded-cardinality metrics label.
func routeLabel(pattern string) string {
	if pattern == "" {
		return "unmatched"
	}
	return pattern
}
