package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/mark"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/relation"
)

// ScanJob parameterises one distributed corpus scan.
type ScanJob struct {
	// Records is the certificate set, in scanner order — core.BatchPrep's
	// live records. Shipped to every worker without frequency profiles.
	Records []*core.Record
	// Schema is the schema-spec string shard payloads conform to.
	Schema string
	// BlockRows and Workers pass through to each worker's scan
	// (api.ShardScanRequest semantics).
	BlockRows int
	Workers   int
	// Progress, when non-nil, receives each completed shard's row count —
	// the cluster aggregate of the per-block ticks a local scan would
	// emit. Called from shard goroutines; must be concurrency-safe.
	Progress func(tuples int)
}

// shardTask is one row-range shard travelling through the scheduler.
type shardTask struct {
	idx      int
	data     string // serialized rows, CSV with header
	rows     int
	attempts int
	// failed is the set of worker IDs that already failed this shard;
	// acquire avoids them while an untried live worker exists.
	failed map[string]bool
	// sub/child track re-splitting: when an auto-sized shard fails, the
	// retry may cut it into smaller children (same idx, sub 0..n-1) so a
	// shard sized for a fast worker that died isn't forced whole onto a
	// slow survivor. Children never split again.
	sub   int
	child bool
}

// resKey addresses one parked partial result: a whole shard is
// {idx, 0}; a split shard parks one entry per child.
type resKey struct{ idx, sub int }

// scan is the mutable state of one ScanShards call.
type scan struct {
	c   *Coordinator
	ctx context.Context
	job ScanJob
	// format is the wire format shard payloads are serialized in: the
	// source's own format when it can hand out raw record bytes
	// (relation.RawShardSource), "csv" re-serialization otherwise.
	format string
	// bandwidths holds each scanner's |wm_data|, the shape every wire
	// tally is validated against before it may merge.
	bandwidths []int

	// kick wakes the dispatcher after any state change; buffered so a
	// wake between dispatcher polls is never lost. feed is the same
	// mechanism pointed the other way: it wakes a reader parked on a
	// full pending queue when the dispatcher drains it (or the scan
	// dies). readerExited closes when the reader goroutine stops
	// touching src — ScanShards never returns before it, so a caller's
	// stream (an HTTP request body, typically) is never read after the
	// call unwinds.
	kick         chan struct{}
	feed         chan struct{}
	readerExited chan struct{}

	mu         sync.Mutex
	pending    []*shardTask
	inflight   int
	produced   int
	readerDone bool
	err        error
	results    map[resKey][]*mark.Tally
	// subCount marks shards that were re-split on retry: idx -> number
	// of children whose partials must merge in sub order.
	subCount map[int]int
}

// wake nudges the dispatcher (non-blocking; coalesces).
func (s *scan) wake() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// wakeFeeder nudges a reader parked on a full queue.
func (s *scan) wakeFeeder() {
	select {
	case s.feed <- struct{}{}:
	default:
	}
}

// failLocked records the scan's first fatal error; callers hold s.mu and
// wake the loops they may have parked after unlocking.
func (s *scan) failLocked(err error) {
	if s.err == nil {
		s.err = err
	}
}

// ScanShards fans one streaming pass of src out across the cluster:
// contiguous row-range shards are serialized and dispatched to live
// workers (capacity-bounded, least-loaded first), failed or timed-out
// shards are retried on surviving workers, and the returned partial
// tallies are folded in row order — so the result is one merged tally per
// scanner, bit-identical to pipeline.ScanMany over the same stream for
// both vote aggregations (the LastWriteWins column is exactly why merge
// order is shard order, not completion order).
//
// scanners must be prepared against src's schema and correspond 1:1 with
// job.Records; the coordinator uses them only for tally sizing and
// validation — all scanning happens on workers. A cancelled ctx stops the
// reader between shards, abandons in-flight RPCs, and returns ctx.Err().
// If every worker dies mid-scan the call fails with ErrNoWorkers (wrapped
// with the stranded shard's index) once retries are exhausted.
func (c *Coordinator) ScanShards(ctx context.Context, src relation.RowReader, scanners []*mark.Scanner, job ScanJob) ([]*mark.Tally, error) {
	if len(scanners) != len(job.Records) {
		return nil, fmt.Errorf("cluster: %d scanners for %d records", len(scanners), len(job.Records))
	}
	if len(scanners) == 0 {
		return nil, errors.New("cluster: no certificates to scan")
	}
	format := "csv"
	if raw, ok := src.(relation.RawShardSource); ok {
		format = raw.FormatName()
	}
	// Ship lean certificates: a shard scan never reads the frequency
	// profile (only single-record remap recovery does) and core's
	// scanner-cache key excludes it, so dropping it shrinks every shard
	// header without costing a worker cache hit.
	lean := make([]*core.Record, len(job.Records))
	for i, rec := range job.Records {
		r := *rec
		r.Profile = nil
		lean[i] = &r
	}
	job.Records = lean
	s := &scan{
		c:            c,
		ctx:          ctx,
		job:          job,
		format:       format,
		bandwidths:   make([]int, len(scanners)),
		kick:         make(chan struct{}, 1),
		feed:         make(chan struct{}, 1),
		readerExited: make(chan struct{}),
		results:      make(map[resKey][]*mark.Tally),
		subCount:     make(map[int]int),
	}
	for j, sc := range scanners {
		s.bandwidths[j] = sc.Bandwidth()
	}
	c.addScan(s)
	defer c.removeScan(s)

	// The ctx watcher wakes both loops so cancellation is observed even
	// while every shard slot (or the reader) is parked.
	watcherDone := make(chan struct{})
	defer close(watcherDone)
	go func() {
		select {
		case <-ctx.Done():
			s.wake()
			s.wakeFeeder()
		case <-watcherDone:
		}
	}()

	go s.readShards(src)
	// However the dispatch ends, wait for the reader to let go of src
	// before returning: the caller may close the stream (net/http closes
	// a request body when its handler returns) the moment this call
	// unwinds.
	err := s.dispatch()
	s.wakeFeeder()
	<-s.readerExited
	if err != nil {
		return nil, err
	}

	// Merge in shard (row) order. Every produced shard has a parked
	// result — dispatch only returns nil once done == produced.
	totals := make([]*mark.Tally, len(scanners))
	for j, sc := range scanners {
		totals[j] = sc.NewTally()
	}
	for idx := 0; idx < s.produced; idx++ {
		subs := 1
		if n := s.subCount[idx]; n > 0 {
			subs = n
		}
		for sub := 0; sub < subs; sub++ {
			for j := range totals {
				totals[j].Merge(s.results[resKey{idx, sub}][j])
			}
		}
	}
	return totals, nil
}

// readShards streams src into serialized shard payloads, appending each
// to the pending queue as it fills. Runs on its own goroutine so shard 0
// can be scanning on a worker while shard 1 is still being read, but
// under backpressure: when MaxBufferedShards undispatched payloads are
// already queued the reader parks until the dispatcher drains one, so
// coordinator memory stays bounded by buffered + in-flight shards, never
// by the corpus. The reader also stops at the next shard boundary (and
// between rows) once the scan has failed or been cancelled.
func (s *scan) readShards(src relation.RowReader) {
	defer close(s.readerExited)
	if raw, ok := src.(relation.RawShardSource); ok {
		// Zero-reprint fast path: the source slices shard payloads
		// straight out of the input bytes (see readRawShards).
		s.readRawShards(raw)
		return
	}
	auto := s.c.cfg.AutoShardRows
	shardRows := s.c.cfg.shardRows()
	maxBuffered := s.c.cfg.maxBufferedShards()
	var (
		buf  strings.Builder
		w    *relation.CSVRowWriter
		rows int
	)
	reset := func() error {
		buf.Reset()
		var err error
		w, err = relation.NewCSVRowWriter(&buf, src.Schema())
		rows = 0
		return err
	}
	finish := func(readErr error) {
		s.mu.Lock()
		s.readerDone = true
		if readErr != nil {
			s.failLocked(readErr)
		}
		s.mu.Unlock()
		s.wake()
	}
	// cut queues the current payload as the next shard, parking first
	// while the queue is full. Reports false when the scan has died and
	// the reader should stop.
	cut := func() bool {
		if err := w.Flush(); err != nil {
			finish(err)
			return false
		}
		task := &shardTask{data: buf.String(), rows: rows, failed: make(map[string]bool)}
		for {
			s.mu.Lock()
			if s.err != nil {
				s.mu.Unlock()
				finish(nil)
				return false
			}
			if len(s.pending) < maxBuffered {
				task.idx = s.produced
				s.produced++
				s.pending = append(s.pending, task)
				s.mu.Unlock()
				s.wake()
				return true
			}
			s.mu.Unlock()
			select {
			case <-s.feed:
			case <-s.ctx.Done():
				finish(s.ctx.Err())
				return false
			}
		}
	}
	stopped := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.err != nil
	}
	if err := reset(); err != nil {
		finish(err)
		return
	}
	for {
		if s.ctx.Err() != nil {
			finish(s.ctx.Err())
			return
		}
		if stopped() {
			finish(nil)
			return
		}
		// Auto mode sizes each shard as it begins, not up front: the
		// reader stays at most one undispatched shard ahead (so the size
		// reflects the worker that will actually receive it) and asks the
		// coordinator how many rows that worker digests in the target
		// latency.
		if auto && rows == 0 {
			if shardRows = s.autoShardRows(); shardRows == 0 {
				finish(s.ctx.Err())
				return
			}
		}
		t, err := src.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			finish(err)
			return
		}
		if err := w.Write(t); err != nil {
			finish(err)
			return
		}
		rows++
		if rows >= shardRows {
			if !cut() {
				return
			}
			if err := reset(); err != nil {
				finish(err)
				return
			}
		}
	}
	if rows > 0 && !cut() {
		return
	}
	finish(nil)
}

// rawReadRows caps how many rows one ReadBlock call of the raw shard
// encoder parses at a time, bounding the reused block's arena while a
// multi-thousand-row shard accumulates.
const rawReadRows = 4096

// readRawShards is readShards for sources that hand out raw record
// bytes (relation.RawShardSource): each shard payload is the source's
// own header plus verbatim slices of the input stream — the rows are
// still parsed (a malformed record fails the scan exactly where the
// row path would fail), but never re-printed, so the coordinator does
// no per-row string materialization or CSV quoting work at all. The
// backpressure, auto-sizing and failure semantics match readShards.
func (s *scan) readRawShards(src relation.RawShardSource) {
	src.SetRecordRaw(true)
	auto := s.c.cfg.AutoShardRows
	shardRows := s.c.cfg.shardRows()
	maxBuffered := s.c.cfg.maxBufferedShards()
	hdr := string(src.RawHeader())
	blk := relation.GetBlock(src.Schema())
	defer relation.PutBlock(blk)
	var (
		buf  strings.Builder
		rows int
	)
	reset := func() {
		buf.Reset()
		buf.WriteString(hdr)
		rows = 0
	}
	finish := func(readErr error) {
		s.mu.Lock()
		s.readerDone = true
		if readErr != nil {
			s.failLocked(readErr)
		}
		s.mu.Unlock()
		s.wake()
	}
	cut := func() bool {
		task := &shardTask{data: buf.String(), rows: rows, failed: make(map[string]bool)}
		for {
			s.mu.Lock()
			if s.err != nil {
				s.mu.Unlock()
				finish(nil)
				return false
			}
			if len(s.pending) < maxBuffered {
				task.idx = s.produced
				s.produced++
				s.pending = append(s.pending, task)
				s.mu.Unlock()
				s.wake()
				return true
			}
			s.mu.Unlock()
			select {
			case <-s.feed:
			case <-s.ctx.Done():
				finish(s.ctx.Err())
				return false
			}
		}
	}
	stopped := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.err != nil
	}
	reset()
	for {
		if s.ctx.Err() != nil {
			finish(s.ctx.Err())
			return
		}
		if stopped() {
			finish(nil)
			return
		}
		if auto && rows == 0 {
			if shardRows = s.autoShardRows(); shardRows == 0 {
				finish(s.ctx.Err())
				return
			}
		}
		n, err := src.ReadBlock(blk, min(shardRows-rows, rawReadRows))
		if err == io.EOF {
			break
		}
		if err != nil {
			finish(err)
			return
		}
		buf.Write(blk.RawBytes())
		rows += n
		if rows >= shardRows {
			if !cut() {
				return
			}
			reset()
		}
	}
	if rows > 0 && !cut() {
		return
	}
	finish(nil)
}

// autoShardRows parks until the dispatcher has drained the pending
// queue — keeping the reader at most one undispatched shard ahead in
// auto mode — then returns the row count the coordinator recommends for
// the next shard. Returns 0 when the scan has died and the reader
// should stop.
func (s *scan) autoShardRows() int {
	for {
		s.mu.Lock()
		if s.err != nil || s.ctx.Err() != nil {
			s.mu.Unlock()
			return 0
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return s.c.targetShardRows()
		}
		s.mu.Unlock()
		select {
		case <-s.feed:
		case <-s.ctx.Done():
			return 0
		}
	}
}

// dispatch is the scheduler loop: hand pending shards to free workers,
// park when none are free, finish when the reader is drained and every
// shard is done — or when a fatal error (stream error, exhausted retries,
// cancellation, no workers left) surfaces, after in-flight RPCs unwind.
func (s *scan) dispatch() error {
	for {
		s.mu.Lock()
		if s.ctx.Err() != nil {
			s.failLocked(s.ctx.Err())
		}
		if s.err != nil {
			if s.inflight == 0 {
				err := s.err
				s.mu.Unlock()
				return err
			}
			s.mu.Unlock()
		} else if s.readerDone && len(s.pending) == 0 && s.inflight == 0 {
			s.mu.Unlock()
			return nil
		} else if len(s.pending) > 0 {
			task := s.pending[0]
			s.pending = s.pending[1:]
			s.mu.Unlock()
			s.wakeFeeder() // the queue has room again
			if m := s.c.acquire(task.failed); m != nil {
				s.mu.Lock()
				s.inflight++
				s.mu.Unlock()
				go s.runShard(task, m)
				continue // look for more dispatchable work before parking
			}
			// No free slot: put the shard back and, if the cluster has
			// emptied out with nothing in flight to free a slot later,
			// give up.
			s.mu.Lock()
			s.pending = append([]*shardTask{task}, s.pending...)
			if s.inflight == 0 && s.c.LiveWorkers() == 0 {
				s.failLocked(fmt.Errorf("%w (shard %d stranded)", ErrNoWorkers, task.idx))
			}
			s.mu.Unlock()
			s.wakeFeeder()
		} else {
			s.mu.Unlock()
		}
		// Cancellation arrives as a wake too (the ctx watcher), so this
		// never selects on ctx.Done directly — that would spin while
		// in-flight RPCs unwind after cancel.
		<-s.kick
	}
}

// runShard executes one shard RPC against one worker and routes the
// outcome: park the decoded tallies on success, requeue (avoiding this
// worker) on failure, fail the scan once the shard's attempts are spent.
func (s *scan) runShard(task *shardTask, m *member) {
	if met := s.c.met; met != nil {
		met.dispatched.With(m.id).Inc()
	}
	// One child span per attempt: a retried shard shows up as N dispatch
	// spans under the same scan, each naming the worker it tried. The
	// span's context rides into the RPC, so the worker's server span —
	// and everything under it — joins this trace via traceparent.
	sctx, span := trace.Start(s.ctx, "cluster.shard.dispatch")
	defer span.End()
	span.SetInt("shard", int64(task.idx))
	span.SetInt("sub", int64(task.sub))
	span.SetInt("rows", int64(task.rows))
	span.SetAttr("worker", m.id)
	span.SetInt("attempt", int64(task.attempts+1))
	s.c.log.Debug("cluster: shard dispatched",
		"request_id", obs.RequestID(s.ctx), "shard", task.idx, "rows", task.rows,
		"worker", m.id, "attempt", task.attempts+1)
	start := time.Now()
	tallies, err := s.callWorker(sctx, task, m)
	elapsed := time.Since(start)
	span.SetError(err)
	if met := s.c.met; met != nil {
		met.latency.With(m.id).Observe(elapsed.Seconds())
		if err != nil && s.ctx.Err() == nil {
			met.failures.With(m.id).Inc()
		}
	}

	// A transport-level failure (connection refused/reset, timeout) marks
	// the worker unreachable immediately. An api.Error — or a response
	// that arrived but failed validation — means the worker is alive and
	// answering: it keeps its lease and just gets avoided for this shard,
	// so a version-skewed node degrades to retries elsewhere instead of
	// emptying the membership table.
	var aerr *api.Error
	transport := err != nil && !errors.As(err, &aerr) &&
		!errors.Is(err, errInvalidShardResponse) && s.ctx.Err() == nil
	s.c.release(m, transport)

	if err == nil {
		// Feed the autotuner: rows over wall time for this worker. Runs
		// in fixed mode too — the learned rate shows up in /healthz and
		// /metrics either way.
		s.c.observeRate(m, task.rows, elapsed)
		if s.job.Progress != nil {
			s.job.Progress(task.rows)
		}
	}

	attempt := 0
	split := 0
	s.mu.Lock()
	s.inflight--
	switch {
	case err == nil:
		s.results[resKey{task.idx, task.sub}] = tallies
	case s.ctx.Err() != nil || s.err != nil:
		// Cancelled or already failing — drop the shard, the dispatcher
		// is only waiting for in-flight RPCs to unwind.
	default:
		task.attempts++
		attempt = task.attempts
		task.failed[m.id] = true
		if task.attempts >= s.c.cfg.maxShardAttempts() {
			s.failLocked(fmt.Errorf("cluster: shard %d failed on %d workers, last error: %w",
				task.idx, task.attempts, err))
		} else {
			// An auto-sized shard was cut for the worker that just failed
			// it; the survivor retrying it may be far slower. Re-split it
			// in half so the retry granularity matches the cluster that
			// remains. Children keep the shard's attempt budget and never
			// split again; splitting must happen in this same critical
			// section as inflight--, or the dispatcher could observe an
			// empty scheduler and finish without the shard.
			requeue := []*shardTask{task}
			if s.c.cfg.AutoShardRows && !task.child && task.rows >= 2*s.c.cfg.minShardRows() {
				_, rspan := trace.Start(s.ctx, "cluster.shard.resplit")
				rspan.SetInt("shard", int64(task.idx))
				rspan.SetInt("rows", int64(task.rows))
				children, splitErr := s.splitTask(task)
				rspan.SetError(splitErr)
				rspan.End()
				if splitErr == nil {
					s.subCount[task.idx] = len(children)
					requeue = children
					split = len(children)
				}
			}
			s.pending = append(s.pending, requeue...)
			if met := s.c.met; met != nil {
				met.retries.With(m.id).Inc()
			}
		}
	}
	s.mu.Unlock()
	if split > 0 {
		s.c.log.Info("cluster: shard re-split for retry",
			"request_id", obs.RequestID(s.ctx), "shard", task.idx, "rows", task.rows,
			"children", split)
	}
	if attempt > 0 {
		s.c.log.Warn("cluster: shard attempt failed",
			"request_id", obs.RequestID(s.ctx), "shard", task.idx, "worker", m.id,
			"attempt", attempt, "duration", elapsed, "err", err)
	}
	s.wake()
	s.wakeFeeder() // a parked reader re-checks for failure (or freed room)
}

// splitTask cuts a failed shard's payload into two half-sized children
// (same idx, sub 0 and 1) by re-parsing the serialized rows with the
// payload format's raw-recording block reader and slicing each child's
// record bytes verbatim — no re-printing, in either format. The
// children inherit the shard's attempt count and failure history.
func (s *scan) splitTask(task *shardTask) ([]*shardTask, error) {
	schema, err := relation.ParseSchemaSpec(s.job.Schema)
	if err != nil {
		return nil, err
	}
	var src relation.RawShardSource
	if s.format == "jsonl" {
		src = relation.NewJSONLBlockReader(strings.NewReader(task.data), schema)
	} else {
		csrc, err := relation.NewCSVBlockReader(strings.NewReader(task.data), schema)
		if err != nil {
			return nil, fmt.Errorf("cluster: re-split shard %d: %w", task.idx, err)
		}
		src = csrc
	}
	src.SetRecordRaw(true)
	hdr := string(src.RawHeader())
	blk := relation.GetBlock(schema)
	defer relation.PutBlock(blk)
	sizes := [2]int{task.rows / 2, task.rows - task.rows/2}
	children := make([]*shardTask, 0, len(sizes))
	for sub, want := range sizes {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		var buf strings.Builder
		buf.WriteString(hdr)
		for got := 0; got < want; {
			n, err := src.ReadBlock(blk, min(want-got, rawReadRows))
			if err != nil || n == 0 {
				if err == nil {
					err = io.ErrUnexpectedEOF
				}
				return nil, fmt.Errorf("cluster: re-split shard %d: %w", task.idx, err)
			}
			buf.Write(blk.RawBytes())
			got += n
		}
		failed := make(map[string]bool, len(task.failed))
		for id := range task.failed {
			failed[id] = true
		}
		children = append(children, &shardTask{
			idx:      task.idx,
			sub:      sub,
			child:    true,
			data:     buf.String(),
			rows:     want,
			attempts: task.attempts,
			failed:   failed,
		})
	}
	return children, nil
}

// errInvalidShardResponse marks a shard reply that arrived but failed
// validation — the worker is alive, so this must not count as a
// transport failure.
var errInvalidShardResponse = errors.New("invalid shard response")

// callWorker runs the shard RPC under the shard timeout and validates the
// response down to decoded, bandwidth-checked tallies — a malformed
// partial is a shard failure (and a retry), never a corrupt merge.
func (s *scan) callWorker(ctx context.Context, task *shardTask, m *member) ([]*mark.Tally, error) {
	ctx, cancel := context.WithTimeout(ctx, s.c.cfg.shardTimeout())
	defer cancel()
	resp, err := m.client.ScanShard(ctx, api.ShardScanRequest{
		Shard:     task.idx,
		Schema:    s.job.Schema,
		Format:    s.format,
		Data:      task.data,
		Records:   s.job.Records,
		BlockRows: s.job.BlockRows,
		Workers:   s.job.Workers,
	})
	if err != nil {
		return nil, err
	}
	if len(resp.Tallies) != len(s.job.Records) {
		return nil, fmt.Errorf("cluster: worker %s returned %d tallies for %d certificates: %w",
			m.id, len(resp.Tallies), len(s.job.Records), errInvalidShardResponse)
	}
	// A short reply — a truncated body, or an older worker that reads
	// the framed header as a whole JSON request and scans no rows — is
	// well-formed but would merge a hole into the report.
	if resp.Rows != task.rows {
		return nil, fmt.Errorf("cluster: worker %s shard %d: scanned %d rows, want %d: %w",
			m.id, task.idx, resp.Rows, task.rows, errInvalidShardResponse)
	}
	tallies := make([]*mark.Tally, len(resp.Tallies))
	for j, w := range resp.Tallies {
		if w.Bandwidth() != s.bandwidths[j] {
			return nil, fmt.Errorf("cluster: worker %s shard %d: tally %d has bandwidth %d, want %d: %w",
				m.id, task.idx, j, w.Bandwidth(), s.bandwidths[j], errInvalidShardResponse)
		}
		t, err := w.Tally()
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %s shard %d: %v: %w",
				m.id, task.idx, err, errInvalidShardResponse)
		}
		tallies[j] = t
	}
	return tallies, nil
}
