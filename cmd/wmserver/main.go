// Command wmserver runs the watermarking system as an HTTP service: embed
// and verify jobs arrive as JSON, run through the chunked worker pool of
// internal/pipeline, and certificates persist in an on-disk record store.
//
// Usage:
//
//	wmserver -addr :8080 -store ./wmstore -workers 0 -scanner-cache 256
//
// One binary plays every cluster role. A coordinator accepts worker
// registrations and fans corpus audits out across them; workers join a
// coordinator and scan the row-range shards it dispatches:
//
//	wmserver -addr :8080 -store ./wmstore -coordinator -shard-rows 8192
//	wmserver -addr :8081 -store ./w1store -join http://coord:8080 -capacity 2
//	wmserver -addr :8082 -store ./w2store -join http://coord:8080 -capacity 2
//
// The coordinator cuts every shard at -shard-rows rows and retries a
// failed shard whole on another worker. Point clients (wmtool audit, the
// SDK, curl) at the coordinator; audits are distributed transparently
// and the reports are bit-identical to a single-node scan. See
// internal/server for the endpoint reference, internal/cluster for the
// protocol, README.md for a quickstart with curl. SIGINT/SIGTERM drains
// in-flight requests before exiting.
//
// Every role serves Prometheus-format telemetry at GET /metrics and logs
// structured lines (log/slog, -log-level, switchable at runtime via
// PUT /debug/loglevel) carrying the X-Request-ID that correlates an API
// call with the shard scans it fans out; -pprof additionally mounts
// net/http/pprof under /debug/pprof/. Distributed traces ride W3C
// traceparent headers across the cluster: GET /v2/jobs/{id}/trace
// assembles a job's cross-process span tree, GET /debug/traces lists the
// flight recorder's slowest and errored requests, and -trace-sample /
// -trace-ring / -trace-off tune or disable the recorder.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"

	"repro/internal/cluster"
	"repro/internal/keyhash"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	storeDir := flag.String("store", "./wmstore", "certificate store directory")
	workers := flag.Int("workers", 0, "default pipeline workers per job (0 = NumCPU)")
	maxBody := flag.Int64("max-body", server.DefaultMaxBodyBytes, "maximum request body bytes")
	scannerCache := flag.Int("scanner-cache", 0, "prepared-certificate cache entries (0 = default, negative = disable)")
	jobWorkers := flag.Int("job-workers", 0, "concurrent async jobs (0 = default)")
	jobQueue := flag.Int("job-queue", 0, "async job queue depth; beyond it POST /v2/jobs replies 429 (0 = default)")
	coordinator := flag.Bool("coordinator", false, "act as cluster coordinator: accept worker registrations and fan corpus audits out across them")
	join := flag.String("join", "", "coordinator base URL to join as a scan worker (e.g. http://coord:8080)")
	advertise := flag.String("advertise", "", "base URL the coordinator reaches this worker at (default derives http://127.0.0.1:<port> from -addr)")
	workerID := flag.String("worker-id", "", "stable worker identity across restarts (default: the advertise URL)")
	capacity := flag.Int("capacity", 0, "concurrent shards this worker scans (0 = 1)")
	shardRows := flag.Int("shard-rows", 0, fmt.Sprintf("suspect rows per dispatched shard when coordinating; every shard but the last holds exactly this many (0 = %d)", cluster.DefaultShardRows))
	kernel := flag.String("kernel", "", "pin the batched keyed-hash backend (see 'wmtool kernels'; empty = pick from this CPU's features)")
	logLevel := flag.String("log-level", "info", "initial log level: debug, info, warn or error (changeable at runtime via PUT /debug/loglevel)")
	enablePprof := flag.Bool("pprof", false, "mount /debug/pprof/ profiling endpoints")
	traceSample := flag.Float64("trace-sample", 1, "trace head-sampling ratio in [0,1]: the probability a request's trace keeps child spans; errored requests are recorded regardless; the decision is a pure function of the trace ID, so every cluster node agrees without coordination")
	traceRing := flag.Int("trace-ring", 0, "finished spans retained in this node's in-memory trace ring (0 = default)")
	traceOff := flag.Bool("trace-off", false, "disable tracing and the /v2/jobs/{id}/trace, /v2/internal/trace and /debug/traces routes entirely")
	flag.Parse()

	if *coordinator && *join != "" {
		fmt.Fprintln(os.Stderr, "wmserver: -coordinator and -join are mutually exclusive (a node is one or the other)")
		os.Exit(2)
	}
	adv := *advertise
	if *join != "" && adv == "" {
		var err error
		if adv, err = deriveAdvertiseURL(*addr); err != nil {
			fmt.Fprintln(os.Stderr, "wmserver:", err)
			os.Exit(2)
		}
	}
	if *shardRows < 0 {
		fmt.Fprintf(os.Stderr, "wmserver: invalid -shard-rows %d (want a row count)\n", *shardRows)
		os.Exit(2)
	}
	kind, err := parseKernel(*kernel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wmserver:", err)
		os.Exit(2)
	}

	level := new(slog.LevelVar)
	level.Set(obs.ParseLevel(*logLevel))
	err = server.Run(*addr, *storeDir, server.Config{
		Workers:             *workers,
		MaxBodyBytes:        *maxBody,
		ScannerCacheEntries: *scannerCache,
		JobWorkers:          *jobWorkers,
		JobQueueDepth:       *jobQueue,
		Log:                 obs.NewLogger(os.Stderr, level),
		LogLevel:            level,
		EnablePprof:         *enablePprof,
		Trace:               trace.Options{SampleRatio: *traceSample, Capacity: *traceRing},
		TraceOff:            *traceOff,
		HashKernel:          kind,
		Cluster: server.ClusterConfig{
			Coordinator:  *coordinator,
			Cluster:      cluster.Config{ShardRows: *shardRows},
			JoinURL:      *join,
			AdvertiseURL: adv,
			WorkerID:     *workerID,
			Capacity:     *capacity,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wmserver:", err)
		os.Exit(1)
	}
}

// parseKernel validates a -kernel value against the registered hash
// backends, listing them on a miss.
func parseKernel(v string) (keyhash.KernelKind, error) {
	if v == "" || v == "auto" {
		return keyhash.KernelAuto, nil
	}
	for _, bk := range keyhash.Backends() {
		if string(bk.Kind) == v {
			if !bk.Available {
				return "", fmt.Errorf("-kernel %s not available on this machine (needs %s)", v, bk.Requires)
			}
			return bk.Kind, nil
		}
	}
	names := "auto"
	for _, bk := range keyhash.Backends() {
		names += ", " + string(bk.Kind)
	}
	return "", fmt.Errorf("unknown -kernel %q (have %s)", v, names)
}

// deriveAdvertiseURL builds a loopback advertise URL from a listen
// address — the single-machine default; multi-host clusters must pass
// -advertise with a reachable host.
func deriveAdvertiseURL(addr string) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("cannot derive -advertise from -addr %q: %v", addr, err)
	}
	if port == "" || port == "0" {
		return "", fmt.Errorf("cannot derive -advertise from -addr %q: pass -advertise explicitly", addr)
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port), nil
}
