// Command perfbench is the repository's benchmark: it generates seeded
// inputs, drives one workload for a fixed time, checks every output, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer metrics
// of a separate traced run) as the last line of standard output. See
// README.md for the workloads and metrics, and run.py for how it is
// built and invoked.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/keyhash"
	"repro/internal/mark"
)

// Workload names.
const (
	wCatalog   = "catalog_audit"
	wRoundtrip = "owner_roundtrip"
	wService   = "audit_service"
)

var workloads = []string{wCatalog, wRoundtrip, wService}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 11

// warmupOps run untimed before the timed phase of a closed loop.
const warmupOps = 2

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every input size and probe budget; always 1 for the
	// command, smaller only in the smoke tests.
	scale float64
	// outDir receives span files and set-up scratch; it lives inside the
	// checkout.
	outDir string
}

// pins are every execution knob the benchmark fixes instead of letting
// the program derive it from the machine.
type pins struct {
	Kernel           keyhash.KernelKind `json:"kernel"`
	ScanWorkers      int                `json:"scan_workers"`
	BlockRows        int                `json:"block_rows"`
	ShardRows        int                `json:"shard_rows"`
	Nodes            int                `json:"nodes"`
	CoordWorkers     int                `json:"coordinator_workers"`
	CoordJobWorkers  int                `json:"coordinator_job_workers"`
	NodeWorkers      int                `json:"node_workers"`
	NodeJobWorkers   int                `json:"node_job_workers"`
	NodeCapacity     int                `json:"node_capacity"`
	JobQueueDepth    int                `json:"job_queue_depth"`
	Rate             float64            `json:"rate_jobs_per_s"`
	InFlight         int                `json:"max_in_flight"`
	TraceSampleRatio float64            `json:"trace_sample_ratio"`
}

// pinnedKernel is the hash backend every scan runs on when the CPU has
// it; otherwise the portable kernel.
const pinnedKernel = keyhash.KernelMultiBuffer

func choosePins() pins {
	kernel := keyhash.KernelPortable
	for _, b := range keyhash.Backends() {
		if b.Kind == pinnedKernel && b.Available {
			kernel = pinnedKernel
		}
	}
	return pins{
		Kernel:           kernel,
		ScanWorkers:      2,
		BlockRows:        mark.DefaultBlockRows,
		ShardRows:        5000,
		Nodes:            2,
		CoordWorkers:     1,
		CoordJobWorkers:  2,
		NodeWorkers:      1,
		NodeJobWorkers:   1,
		NodeCapacity:     2,
		JobQueueDepth:    64,
		Rate:             serviceRate,
		InFlight:         2,
		TraceSampleRatio: 0,
	}
}

// serviceRate is audit_service's fixed arrival rate in jobs per second.
const serviceRate = 6.0

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	calibrate := flag.Bool("calibrate", false, "print keyhash.Calibrate() as JSON and exit")
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "timed phase length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer run instead")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for span files and scratch")
	flag.Parse()
	if *calibrate {
		if err := json.NewEncoder(os.Stdout).Encode(keyhash.Calibrate()); err != nil {
			fatal(err)
		}
		return
	}
	cfg.trace = traceFlag == 1
	cfg.scale = 1
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one benchmark run and returns its result; progress notes
// and the fingerprint go to log.
func run(ctx context.Context, cfg config, log io.Writer) (*result, error) {
	if !slices.Contains(workloads, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 {
		return nil, fmt.Errorf("seconds and scale must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	p := choosePins()
	if err := printFingerprint(log, cfg, p); err != nil {
		return nil, err
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return tracedRun(ctx, cfg, p, d, log)
	}
	if cfg.workload == wService {
		return serviceRun(ctx, cfg, p, d, log)
	}
	return closedRun(ctx, cfg, p, d, log)
}

// closedWorkload is a workload driven as a closed loop with one op in
// flight.
type closedWorkload interface {
	op(ctx context.Context, tr *tracer, opID int) error
	// check validates the last op's outputs (the correctness gate).
	check() error
	rowsPerOp() int
	close()
}

func setupClosed(cfg config, p pins) (closedWorkload, error) {
	if cfg.workload == wCatalog {
		return setupCatalog(cfg.seed, cfg.scale, p)
	}
	return setupRoundtrip(cfg.seed, cfg.scale, p)
}

// timedSetup sets a workload up setupReps times, closing all but the last,
// and returns the last with the median set-up time in seconds.
func timedSetup[W interface{ close() }](setup func() (W, error)) (W, float64, error) {
	var w W
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		settle()
		t0 := time.Now()
		var err error
		if w, err = setup(); err != nil {
			return w, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return w, median(times), nil
}

// loopStats is what one closed-loop session measured.
type loopStats struct {
	lat, latTraced []float64 // op latencies, ms
	attempted      int
	failed         int
	firstErr       error
	cpu            time.Duration // CPU inside op windows
	alloc          float64       // heap bytes allocated inside op windows
	heapPeak       float64
	gc             *gcMeter
}

// loop runs w for d, forcing a collection before every op so each starts
// from the same heap state. With tr non-nil every other op is traced and
// GC activity inside ops is metered.
func loop(ctx context.Context, w closedWorkload, d time.Duration, tr *tracer) *loopStats {
	st := &loopStats{}
	if tr != nil {
		st.gc = newGCMeter()
	}
	alloc := newRTReader(mAllocBytes)
	hs := startHeapSampler(0)
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		settle()
		var t *tracer
		if tr != nil && i%2 == 1 {
			t = tr
		}
		var err error
		op := func() { err = w.op(ctx, t, i) }
		alloc.read()
		a0, c0, t0 := alloc.value(0), cpuTime(), time.Now()
		if st.gc != nil {
			st.gc.measure(op)
		} else {
			op()
		}
		el := time.Since(t0)
		c1 := cpuTime()
		alloc.read()
		hs.cut()
		st.alloc += alloc.value(0) - a0
		st.cpu += c1 - c0
		ms := float64(el.Nanoseconds()) / 1e6
		if t != nil {
			st.latTraced = append(st.latTraced, ms)
		} else {
			st.lat = append(st.lat, ms)
		}
		if err == nil {
			err = w.check()
		}
		st.attempted++
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
		}
	}
	st.heapPeak = hs.finish()
	return st
}

func closedRun(ctx context.Context, cfg config, p pins, d time.Duration, log io.Writer) (*result, error) {
	w, setupS, err := timedSetup(func() (closedWorkload, error) { return setupClosed(cfg, p) })
	if err != nil {
		return nil, err
	}
	defer w.close()
	for i := 0; i < warmupOps; i++ {
		if err := w.op(ctx, nil, -1); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
		if err := w.check(); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}
	st := loop(ctx, w, d, nil)
	if st.firstErr != nil {
		fmt.Fprintf(log, "# failure: %v\n", st.firstErr)
	}
	ops := float64(st.attempted)
	return endToEnd(cfg.workload, log, setupS, st.lat, st.attempted, st.failed,
		float64(st.cpu.Nanoseconds())/1e6/ops,
		st.alloc/(ops*float64(w.rowsPerOp())),
		st.heapPeak), nil
}

func serviceRun(ctx context.Context, cfg config, p pins, d time.Duration, log io.Writer) (*result, error) {
	w, setupS, err := timedSetup(func() (*serviceWorkload, error) {
		return setupService(cfg.seed, cfg.scale, p, cfg.outDir)
	})
	if err != nil {
		return nil, err
	}
	defer w.close()
	// Warm-up: one job per payload, untimed and checked.
	for i := 0; i < serviceOwners; i++ {
		j := w.job(ctx, -1-i, i, time.Now(), nil)
		if f, err := w.gate(ctx, []jobResult{j}); f > 0 {
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}
	st, err := w.session(ctx, cfg.seed, d, nil)
	if err != nil {
		return nil, err
	}
	failed, ferr := w.gate(ctx, st.jobs)
	if ferr != nil {
		fmt.Fprintf(log, "# failure: %v\n", ferr)
	}
	var lat []float64
	for _, j := range st.jobs {
		lat = append(lat, float64(j.latency.Nanoseconds())/1e6)
	}
	ops := float64(len(st.jobs))
	return endToEnd(cfg.workload, log, setupS, lat, len(st.jobs), failed,
		float64(st.cpu.Nanoseconds())/1e6/ops,
		st.alloc/(ops*float64(w.rows)),
		st.heapPeak), nil
}

// endToEnd assembles the end-to-end metrics and notes the tail's
// percentile and sample count.
func endToEnd(workload string, log io.Writer, setupS float64, lat []float64, attempted, failed int, cpuMs, allocPerRow, heapPeak float64) *result {
	tailV, pct, n := tail(lat)
	fmt.Fprintf(log, "# %s: op_tail_ms is p%.2f of %d ops (%d beyond it)\n", workload, pct, n, min(tailBeyond, max(n-1, 0)))
	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":         {setupS, "s"},
			"op_p50_ms":       {median(lat), "ms"},
			"op_tail_ms":      {tailV, "ms"},
			"cpu_ms_per_op":   {cpuMs, "ms"},
			"alloc_b_per_row": {allocPerRow, "B"},
			"heap_peak_mb":    {heapPeak / 1e6, "MB"},
			"success_frac":    {1 - float64(failed)/float64(max(attempted, 1)), "ratio"},
		},
	}
}

// printFingerprint notes the machine, toolchain and every pinned knob.
func printFingerprint(log io.Writer, cfg config, p pins) error {
	cal := keyhash.Calibrate()
	fp := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"trace":       cfg.trace,
		"cpu_model":   cpuModel(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"pins":        p,
		"calibration": map[string]any{"auto_pick": cal.Kind, "hashes_per_sec": cal.HashesPerSec},
	}
	data, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(log, "# fingerprint %s\n", data)
	return err
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg config) string {
	return filepath.Join(cfg.outDir, "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
}
