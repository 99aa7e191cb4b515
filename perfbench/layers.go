package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/freq"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/pipeline"
	"repro/internal/relation"
)

// The traced run: the selected workload's op loop with every other op
// traced (spans around each layer call, kept in memory and written out
// at the end), followed by probes that time or count each layer's public
// functions over the workloads' own inputs. Every traced run prints
// every per-layer metric, whichever workload it was started for.

// Probe budgets at scale 1; each probe reports the median call.
const (
	probeBudget       = 400 * time.Millisecond
	kernelProbeBudget = 1 * time.Second
	// probeSession is the open-loop session the cluster, jobs and server
	// metrics come from when the selected workload is not audit_service.
	probeSession = 3 * time.Second
)

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

func tracedRun(ctx context.Context, cfg config, p pins, d time.Duration, log io.Writer) (*result, error) {
	budget := func(b time.Duration) time.Duration {
		return max(time.Duration(float64(b)*cfg.scale), 10*time.Millisecond)
	}
	cat, err := setupCatalog(cfg.seed, cfg.scale, p)
	if err != nil {
		return nil, err
	}
	rt, err := setupRoundtrip(cfg.seed, cfg.scale, p)
	if err != nil {
		return nil, err
	}
	svc, err := setupService(cfg.seed, cfg.scale, p, cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer svc.close()

	tr := newTracer()
	m := metricSet{}
	res := &result{Metrics: map[string]metric(m)}
	var session *openStats
	switch cfg.workload {
	case wCatalog, wRoundtrip:
		var w closedWorkload = cat
		if cfg.workload == wRoundtrip {
			w = rt
		}
		for i := 0; i < warmupOps; i++ {
			if err := w.op(ctx, nil, -1); err != nil {
				return nil, fmt.Errorf("warmup: %w", err)
			}
		}
		st := loop(ctx, w, d, tr)
		if st.firstErr != nil {
			fmt.Fprintf(log, "# failure: %v\n", st.firstErr)
		}
		res.Attempted, res.Failed = st.attempted, st.failed
		setOverhead(m, st.lat, st.latTraced)
		setGC(m, st.gc, st.attempted)
	case wService:
		if session, err = svc.session(ctx, cfg.seed, d, tr); err != nil {
			return nil, err
		}
		failed, ferr := svc.gate(ctx, session.jobs)
		if ferr != nil {
			fmt.Fprintf(log, "# failure: %v\n", ferr)
		}
		res.Attempted, res.Failed = len(session.jobs), failed
		var lat, latTraced []float64
		for _, j := range session.jobs {
			ms := float64(j.latency.Nanoseconds()) / 1e6
			if j.traced {
				latTraced = append(latTraced, ms)
			} else {
				lat = append(lat, ms)
			}
		}
		setOverhead(m, lat, latTraced)
		setGC(m, session.gc, len(session.jobs))
	}
	res.Correct = res.Failed == 0

	if err := catalogProbes(ctx, cat, p, budget, m, log); err != nil {
		return nil, fmt.Errorf("catalog probes: %w", err)
	}
	if err := roundtripProbes(ctx, rt, p, budget, m); err != nil {
		return nil, fmt.Errorf("roundtrip probes: %w", err)
	}
	if session == nil {
		if session, err = svc.session(ctx, cfg.seed, probeSession, nil); err != nil {
			return nil, err
		}
		if failed, ferr := svc.gate(ctx, session.jobs); failed > 0 {
			return nil, fmt.Errorf("probe session: %w", ferr)
		}
	}
	if err := serviceProbes(ctx, svc, p, budget, session, m); err != nil {
		return nil, fmt.Errorf("service probes: %w", err)
	}

	if err := tr.write(spanPath(cfg)); err != nil {
		return nil, err
	}
	self, err := json.Marshal(tr.selfTimes())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "# spans %s; median self time per span, ms: %s\n", spanPath(cfg), self)
	return res, nil
}

// setOverhead reports traced ÷ untraced median op latency − 1.
func setOverhead(m metricSet, lat, latTraced []float64) {
	m.set("bench.trace_overhead_frac", median(latTraced)/median(lat)-1, "ratio")
}

func setGC(m metricSet, gc *gcMeter, ops int) {
	m.set("runtime.gc_cycles_per_op", gc.cycles/float64(ops), "count")
	m.set("runtime.gc_pause_ms_per_op", float64(gc.pause.Nanoseconds())/1e6/float64(ops), "ms")
}

// medianOf times fn over a probe budget and returns the median call in
// seconds.
func medianOf(b time.Duration, fn func() error) (float64, error) {
	times, err := repeat(b, 3, fn)
	if err != nil {
		return 0, err
	}
	return median(times), nil
}

// readAll reads every block of src with maxRows rows per block; with
// keep it returns the blocks, each freshly allocated.
func readAll(src relation.BlockReader, maxRows int, keep bool) ([]*relation.Block, error) {
	var out []*relation.Block
	blk := relation.NewBlock(src.Schema())
	for {
		_, err := src.ReadBlock(blk, maxRows)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, blk)
			blk = relation.NewBlock(src.Schema())
		}
	}
}

func catalogProbes(ctx context.Context, w *catalogWorkload, p pins, budget func(time.Duration) time.Duration, m metricSet, log io.Writer) error {
	// relation: CSV block parse of the suspect alone.
	parse := func(keep bool) ([]*relation.Block, error) {
		src, err := w.reader()
		if err != nil {
			return nil, err
		}
		return readAll(src, p.BlockRows, keep)
	}
	blocks, err := parse(true)
	if err != nil {
		return err
	}
	parseS, err := medianOf(budget(probeBudget), func() error { _, err := parse(false); return err })
	if err != nil {
		return err
	}
	m.set("relation.csv_mb_s", float64(len(w.csv))/1e6/parseS, "MB/s")

	// keyhash: every backend over the key column, block by block.
	keyCol := w.schema.KeyIndex()
	out := make([]keyhash.Digest, p.BlockRows)
	for _, b := range keyhash.Backends() {
		name := "keyhash." + string(b.Kind) + ".mhash_s"
		if !b.Available {
			m.set(name, 0, "Mhash/s")
			continue
		}
		kern, err := keyhash.NewKey("perfbench-probe").NewKernel(b.Kind)
		if err != nil {
			return err
		}
		s, err := medianOf(budget(kernelProbeBudget), func() error {
			for _, blk := range blocks {
				data, offs := blk.Col(keyCol).Raw()
				kern.HashColumn(data, offs, out)
			}
			return nil
		})
		if err != nil {
			return err
		}
		m.set(name, float64(w.rows)/s/1e6, "Mhash/s")
	}

	// keyhash: values hashed per certificate-row in one op (exact).
	v0 := kernelValues()
	if err := w.op(ctx, nil, -1); err != nil {
		return err
	}
	certRows := float64(w.rows * len(w.records))
	m.set("keyhash.values_per_cert_row", float64(kernelValues()-v0)/certRows, "count")

	// mark: every certificate's ScanColumns over pre-read blocks, one
	// scratch, certificate loop inside the block loop as in the engine.
	prep := core.PrepareBatch(w.records, w.schema, w.opts)
	scanners := prep.Scanners()
	tallies := make([]*mark.Tally, len(scanners))
	for i, sc := range scanners {
		tallies[i] = sc.NewTally()
	}
	var bs mark.BlockScratch
	scanS, err := medianOf(budget(probeBudget), func() error {
		for _, t := range tallies {
			t.Reset()
		}
		for _, blk := range blocks {
			for i, sc := range scanners {
				if err := sc.ScanColumns(blk, tallies[i], &bs); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("mark.scan_ns_per_cert_row", scanS*1e9/certRows, "ns")

	// pipeline: the whole ScanMany pass, and its reconciliation against
	// parse + Σ scan spread over the workers.
	_, b0 := pipeline.Stats()
	reps := 0
	manyS, err := medianOf(budget(probeBudget), func() error {
		reps++
		src, err := w.reader()
		if err != nil {
			return err
		}
		_, err = pipeline.ScanMany(ctx, src, scanners, w.scanConfig())
		return err
	})
	if err != nil {
		return err
	}
	_, b1 := pipeline.Stats()
	workers := float64(p.ScanWorkers)
	m.set("pipeline.scan_many_ms", manyS*1e3, "ms")
	m.set("pipeline.blocks_per_op", float64(b1-b0)/float64(reps), "count")
	m.set("pipeline.parallel_eff", (parseS+scanS)/(manyS*workers), "ratio")
	m.set("pipeline.overhead_ms", (manyS*workers-parseS-scanS)*1e3, "ms")
	fmt.Fprintf(log, "# reconcile catalog_audit: scan_many %.2f ms x %d workers = %.2f ms = parse %.2f + scan %.2f + pipeline overhead %.2f\n",
		manyS*1e3, p.ScanWorkers, manyS*workers*1e3, parseS*1e3, scanS*1e3, (manyS*workers-parseS-scanS)*1e3)
	return nil
}

// kernelValues sums keyhash.KernelStats' hashed values over backends.
func kernelValues() uint64 {
	var n uint64
	for _, c := range keyhash.KernelStats() {
		n += c.Values
	}
	return n
}

func roundtripProbes(ctx context.Context, w *roundtripWorkload, p pins, budget func(time.Duration) time.Duration, m metricSet) error {
	b := budget(probeBudget)
	s, err := medianOf(b, func() error { _, err := w.readSuspect(); return err })
	if err != nil {
		return err
	}
	m.set("relation.readcsv_ms", s*1e3, "ms")
	suspect, err := w.readSuspect()
	if err != nil {
		return err
	}
	rec, err := core.LoadRecord(w.wantRecord)
	if err != nil {
		return err
	}

	// core: Watermark on a clone made outside the timed call.
	var marks []float64
	for start := time.Now(); len(marks) < 3 || time.Since(start) < b; {
		rel := w.clean.Clone()
		t0 := time.Now()
		if _, _, err := core.Watermark(rel, w.spec); err != nil {
			return err
		}
		marks = append(marks, time.Since(t0).Seconds())
	}
	m.set("core.watermark_ms", median(marks)*1e3, "ms")
	if s, err = medianOf(b, func() error { _, err := rec.VerifyWith(suspect, w.verifyOpts); return err }); err != nil {
		return err
	}
	m.set("core.verify_ms", s*1e3, "ms")

	// freq: remap recovery on the suspect as read.
	profile := freq.Profile(rec.Profile)
	if s, err = medianOf(b, func() error { _, err := freq.RecoverMapping(suspect, rec.Attribute, profile); return err }); err != nil {
		return err
	}
	m.set("freq.recover_ms", s*1e3, "ms")
	inverse, err := freq.RecoverMapping(suspect, rec.Attribute, profile)
	if err != nil {
		return err
	}
	working := suspect.Clone()
	if _, err := freq.ApplyMapping(working, rec.Attribute, inverse); err != nil {
		return err
	}

	// mark: one detection pass over the recovered copy, the pass whose
	// result is the verdict. The keys copy core's private derivation from
	// the certificate secret, so each probe's result must equal setup's
	// report; a drift in that derivation fails the traced run.
	want, err := ecc.ParseBits(rec.WM)
	if err != nil {
		return err
	}
	opts := mark.Options{
		Attr:              rec.Attribute,
		K1:                keyhash.NewKey(rec.Secret + "|core-k1"),
		K2:                keyhash.NewKey(rec.Secret + "|core-k2"),
		E:                 rec.E,
		Domain:            w.spec.Domain,
		BandwidthOverride: rec.Bandwidth,
		HashKernel:        p.Kernel,
	}
	cfg := pipeline.Config{Workers: p.ScanWorkers, BlockRows: p.BlockRows}
	var detected string
	if s, err = medianOf(b, func() error {
		det, err := pipeline.Detect(ctx, working, len(want), opts, cfg)
		detected = det.WM.String()
		return err
	}); err != nil {
		return err
	}
	if detected != w.wantReport.Detected {
		return fmt.Errorf("detect probe found %s, setup's verification %s", detected, w.wantReport.Detected)
	}
	m.set("mark.detect_ns_per_row", s*1e9/float64(working.Len()), "ns")

	// freq: the frequency channel on the recovered copy.
	fp := freq.DefaultParams(keyhash.NewKey(rec.Secret + "|core-freq"))
	var freqMatch float64
	if s, err = medianOf(b, func() error {
		frep, err := freq.Detect(working, rec.Attribute, len(want), fp)
		if err == nil {
			freqMatch = 1 - ecc.AlterationRate(want, frep.WM)
		}
		return err
	}); err != nil {
		return err
	}
	if freqMatch != w.wantReport.FrequencyMatch {
		return fmt.Errorf("frequency probe matched %v, setup's verification %v", freqMatch, w.wantReport.FrequencyMatch)
	}
	m.set("freq.detect_ms", s*1e3, "ms")
	return nil
}

func serviceProbes(ctx context.Context, w *serviceWorkload, p pins, budget func(time.Duration) time.Duration, st *openStats, m metricSet) error {
	b := budget(probeBudget)
	s, err := medianOf(b, func() error {
		_, err := readAll(relation.NewJSONLBlockReader(bytes.NewReader(w.jsonl[0]), w.schema), p.BlockRows, false)
		return err
	})
	if err != nil {
		return err
	}
	m.set("relation.jsonl_mb_s", float64(len(w.jsonl[0]))/1e6/s, "MB/s")

	cache := core.NewScannerCache(0)
	opts := core.BatchOptions{Workers: p.NodeWorkers, Cache: cache, HashKernel: p.Kernel}
	core.PrepareBatch(w.records, w.schema, opts) // warm the cache, as a serving node's is
	if s, err = medianOf(b, func() error { core.PrepareBatch(w.records, w.schema, opts); return nil }); err != nil {
		return err
	}
	m.set("core.prepare_ms", s*1e3, "ms")

	shard := firstLines(w.jsonl[0], p.ShardRows)
	req := api.ShardScanRequest{Schema: serviceSchema, Format: "jsonl", Data: string(shard), Records: w.records, Workers: p.NodeWorkers}
	if s, err = medianOf(b, func() error { _, err := cluster.ExecuteShard(ctx, req, opts); return err }); err != nil {
		return err
	}
	m.set("cluster.execute_shard_ms", s*1e3, "ms")

	// From the open-loop session: /metrics deltas, the shard handler
	// intervals, and the job timestamps.
	jobs := float64(len(st.jobs))
	delta := func(name string) float64 { return st.metricsPos[name] - st.metricsPre[name] }
	m.set("cluster.shards_per_job", delta("wm_cluster_shards_dispatched_total")/jobs, "count")
	m.set("cluster.retries_per_job", delta("wm_cluster_shard_retries_total")/jobs, "count")
	hits, misses := delta("wm_scanner_cache_hits_total"), delta("wm_scanner_cache_misses_total")
	m.set("core.cache_hit_frac", hits/max(hits+misses, 1), "ratio")

	var rpc, busy, wait, runMs, submit []float64
	var late time.Duration
	for _, j := range st.jobs {
		var handler time.Duration
		for _, c := range w.scans.calls(j.reqID) {
			handler += c.end.Sub(c.start)
			rpc = append(rpc, float64(c.end.Sub(c.start).Nanoseconds())/1e6)
		}
		if j.job.StartedAt != nil && j.job.FinishedAt != nil {
			run := j.job.FinishedAt.Sub(*j.job.StartedAt)
			runMs = append(runMs, float64(run.Nanoseconds())/1e6)
			wait = append(wait, float64(j.job.StartedAt.Sub(j.job.CreatedAt).Nanoseconds())/1e6)
			if run > 0 {
				busy = append(busy, handler.Seconds()/(run.Seconds()*float64(p.Nodes)))
			}
		}
		submit = append(submit, float64(j.submit.Nanoseconds())/1e6)
		late = max(late, j.late)
	}
	m.set("cluster.shard_rpc_ms_p50", median(rpc), "ms")
	m.set("cluster.worker_busy_frac", median(busy), "ratio")
	m.set("jobs.queue_wait_ms_p50", median(wait), "ms")
	m.set("jobs.run_ms_p50", median(runMs), "ms")
	m.set("server.submit_ms_p50", median(submit), "ms")
	m.set("loadgen.late_ms_max", float64(late.Nanoseconds())/1e6, "ms")
	return nil
}

// firstLines returns the first n lines of data.
func firstLines(data []byte, n int) []byte {
	end := 0
	for i := 0; i < n && end < len(data); i++ {
		nl := bytes.IndexByte(data[end:], '\n')
		if nl < 0 {
			return data
		}
		end += nl + 1
	}
	return data[:end]
}
