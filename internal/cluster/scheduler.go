package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/client"
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
	idx int
	// data is the payload: the source's header, then the shard's
	// skimmed records in the scan's wire format.
	data string
	// first is the 0-based stream position of the shard's first row.
	first    int
	rows     int
	attempts int
	// failed is the set of worker IDs that already failed this shard;
	// acquire avoids them while an untried live worker exists.
	failed map[string]bool
}

// scan is the mutable state of one ScanShards call.
type scan struct {
	c   *Coordinator
	ctx context.Context
	job ScanJob
	// records is the JSON certificate array every shard frame carries:
	// job.Records without frequency profiles, encoded once per scan.
	records []byte
	// schema and format describe the source the shard payloads are cut
	// from: its schema, and the wire format ("csv" or "jsonl") workers
	// parse the payloads in.
	schema *relation.Schema
	format string
	// bandwidths holds each scanner's |wm_data|, the shape every wire
	// tally is validated against before it may merge; maxReply bounds a
	// shard reply by them.
	bandwidths []int
	maxReply   int64

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
	results    map[int][]*mark.Tally
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
// contiguous row-range shards are skimmed off src and dispatched to live
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
func (c *Coordinator) ScanShards(ctx context.Context, src relation.RawShardSource, scanners []*mark.Scanner, job ScanJob) ([]*mark.Tally, error) {
	if len(scanners) != len(job.Records) {
		return nil, fmt.Errorf("cluster: %d scanners for %d records", len(scanners), len(job.Records))
	}
	if len(scanners) == 0 {
		return nil, errors.New("cluster: no certificates to scan")
	}
	// Ship lean certificates: a shard scan never reads the frequency
	// profile (only single-record remap recovery does) and core's
	// scanner-cache key excludes it, so dropping it shrinks every shard
	// without costing a worker cache hit. The set is encoded once here,
	// and every shard attempt sends the same bytes, which is what lets
	// workers decode it once per job.
	lean := make([]*core.Record, len(job.Records))
	for i, rec := range job.Records {
		r := *rec
		r.Profile = nil
		lean[i] = &r
	}
	records, err := json.Marshal(lean)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding certificates: %w", err)
	}
	s := &scan{
		c:            c,
		ctx:          ctx,
		job:          job,
		records:      records,
		schema:       src.Schema(),
		format:       src.FormatName(),
		bandwidths:   make([]int, len(scanners)),
		kick:         make(chan struct{}, 1),
		feed:         make(chan struct{}, 1),
		readerExited: make(chan struct{}),
		results:      make(map[int][]*mark.Tally),
	}
	for j, sc := range scanners {
		s.bandwidths[j] = sc.Bandwidth()
	}
	s.maxReply = api.MaxShardResponseLen(s.bandwidths)
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
	err = s.dispatch()
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
		for j := range totals {
			totals[j].Merge(s.results[idx][j])
		}
	}
	return totals, nil
}

// readShards cuts src into shard payloads — the source's header plus
// the verbatim bytes of each shard's records, skimmed without parsing a
// field — and appends each to the pending queue as it fills. A
// relation.JSONLPayloadReader is cut with SkimSpan, so its payloads
// alias the input instead of copying it. Rows are parsed once, on the
// worker that scans them; a record the skim cannot delimit fails the
// scan at its row, as a parse would. Runs on its own goroutine so shard
// 0 can be scanning on a worker while shard 1 is still being read, but
// under backpressure: when MaxBufferedShards undispatched payloads are
// already queued the reader parks until the dispatcher drains one, so
// coordinator memory stays bounded by buffered + in-flight shards, never
// by the corpus. The reader also stops at the next shard boundary once
// the scan has failed or been cancelled.
func (s *scan) readShards(src relation.RawShardSource) {
	defer close(s.readerExited)
	shardRows := s.c.cfg.shardRows()
	maxBuffered := s.c.cfg.maxBufferedShards()
	hdr := src.RawHeader()
	// buf is reused across shards; each payload is one exact-size copy.
	// A source held whole in memory needs neither: a payload is the
	// substring of the input that holds the shard's records (span).
	buf := append([]byte(nil), hdr...)
	spans, _ := src.(*relation.JSONLPayloadReader)
	var span string
	rows, first := 0, 0
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
		data := span // JSONL has no header
		if spans == nil {
			data = string(buf)
		}
		task := &shardTask{data: data, first: first, rows: rows, failed: make(map[string]bool)}
		first += rows
		buf, rows = append(buf[:0], hdr...), 0
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
	for {
		if s.ctx.Err() != nil {
			finish(s.ctx.Err())
			return
		}
		if stopped() {
			finish(nil)
			return
		}
		var n int
		var err error
		if spans != nil {
			span, n, err = spans.SkimSpan(shardRows - rows)
		} else {
			buf, n, err = src.SkimRecords(buf, shardRows-rows)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			finish(err)
			return
		}
		// A span is the whole shard (or the rest of the input): cut it
		// before the next skim replaces it.
		if rows += n; (rows >= shardRows || spans != nil) && !cut() {
			return
		}
	}
	if rows > 0 && !cut() {
		return
	}
	finish(nil)
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
// worker) on failure, fail the scan once the shard's attempts are spent
// — or at once when the shard's rows fail the coordinator's own parse.
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
	answered := errors.As(err, &aerr) || errors.Is(err, errInvalidShardResponse)
	s.c.release(m, err != nil && !answered && s.ctx.Err() == nil)

	// A worker answering invalid_argument either met bad rows or is
	// faulty; only a local parse of the shard can tell which.
	var rowsErr error
	if aerr != nil && aerr.Code == api.CodeInvalidArgument && s.ctx.Err() == nil {
		rowsErr = s.checkShardRows(task)
	}

	if err == nil && s.job.Progress != nil {
		s.job.Progress(task.rows)
	}

	attempt := 0
	s.mu.Lock()
	s.inflight--
	switch {
	case err == nil:
		s.results[task.idx] = tallies
	case s.ctx.Err() != nil || s.err != nil:
		// Cancelled or already failing — drop the shard, the dispatcher
		// is only waiting for in-flight RPCs to unwind.
	case rowsErr != nil:
		// The suspect is at fault: no worker will scan these rows, so
		// fail now rather than spend the retries.
		s.failLocked(rowsErr)
	default:
		task.attempts++
		attempt = task.attempts
		task.failed[m.id] = true
		if task.attempts >= s.c.cfg.maxShardAttempts() {
			s.failLocked(fmt.Errorf("cluster: shard %d failed on %d workers, last error: %w",
				task.idx, task.attempts, err))
		} else {
			// Requeue in this same critical section as inflight--, or the
			// dispatcher could observe an empty scheduler and finish
			// without the shard.
			s.pending = append(s.pending, task)
			if met := s.c.met; met != nil {
				met.retries.With(m.id).Inc()
			}
		}
	}
	s.mu.Unlock()
	if attempt > 0 {
		s.c.log.Warn("cluster: shard attempt failed",
			"request_id", obs.RequestID(s.ctx), "shard", task.idx, "worker", m.id,
			"attempt", attempt, "duration", elapsed, "err", err)
	}
	s.wake()
	s.wakeFeeder() // a parked reader re-checks for failure (or freed room)
}

// shardSource opens a block reader over one shard payload.
func (s *scan) shardSource(data string) (relation.RawShardSource, error) {
	if s.format == "jsonl" {
		return relation.NewJSONLBlockReader(strings.NewReader(data), s.schema), nil
	}
	return relation.NewCSVBlockReader(strings.NewReader(data), s.schema)
}

// checkShardRows parses a shard payload locally with the format's block
// reader, the arbiter when a worker rejects the shard as invalid. A
// parse error is the suspect's, reported with the shard's row range.
func (s *scan) checkShardRows(task *shardTask) error {
	src, err := s.shardSource(task.data)
	if err == nil {
		blk := relation.GetBlock(s.schema)
		defer relation.PutBlock(blk)
		for err == nil {
			if err = s.ctx.Err(); err == nil {
				_, err = src.ReadBlock(blk, 0)
			}
		}
		if err == io.EOF {
			return nil
		}
	}
	return fmt.Errorf("suspect rows %d-%d: %w", task.first+1, task.first+task.rows, err)
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
		BlockRows: s.job.BlockRows,
		Workers:   s.job.Workers,
	}, s.records, s.maxReply)
	if errors.Is(err, client.ErrInvalidResponse) {
		// The body arrived but did not decode: a worker that answers is
		// alive, whatever it answered.
		return nil, fmt.Errorf("cluster: worker %s shard %d: %v: %w",
			m.id, task.idx, err, errInvalidShardResponse)
	}
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
