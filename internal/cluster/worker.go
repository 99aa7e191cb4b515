package cluster

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
	"repro/internal/relation"
)

// ReadShardRequest splits a POST /v2/internal/scan body
// (api.ContentTypeShard) into its JSON header, the certificate array
// that follows it, and a reader over the raw shard rows after that. The
// array is read with io.ReadFull, exactly header.RecordsLen bytes and
// no JSON scan; the rows reader yields the bytes the header's JSON
// decoder buffered past the array, then the rest of body, so the block
// reader parses the rows straight off the request body. A header that
// carries inline Data or Records, or no positive RecordsLen, is
// rejected, and so is a RecordsLen over limit, as the *http.MaxBytesError
// the body itself would have raised.
func ReadShardRequest(body io.Reader, limit int64) (api.ShardScanRequest, []byte, io.Reader, error) {
	var req api.ShardScanRequest
	dec := json.NewDecoder(body)
	if err := dec.Decode(&req); err != nil {
		return req, nil, nil, fmt.Errorf("cluster: shard header: %w", err)
	}
	switch {
	case req.Data != "":
		return req, nil, nil, errors.New("cluster: shard header carries inline data; rows must follow the certificates")
	case len(req.Records) > 0:
		return req, nil, nil, errors.New("cluster: shard header carries inline records; certificates must follow the header")
	case req.RecordsLen <= 0:
		return req, nil, nil, fmt.Errorf("cluster: shard header records_len %d, want a positive byte count", req.RecordsLen)
	case int64(req.RecordsLen) > limit:
		return req, nil, nil, &http.MaxBytesError{Limit: limit}
	}
	rest := io.MultiReader(dec.Buffered(), body)
	records := make([]byte, req.RecordsLen)
	if _, err := io.ReadFull(rest, records); err != nil {
		return req, nil, nil, fmt.Errorf("cluster: shard certificates: %w", err)
	}
	return req, records, rest, nil
}

// RecordSetCacheEntries bounds a RecordSetCache. A worker sees one
// certificate set per concurrent job, so a few dozen sets cover every
// job in flight.
const RecordSetCacheEntries = 32

// RecordSetCache maps the exact bytes of a shard's certificate array to
// its decoded records, so a worker decodes each job's set once, not once
// per shard. The key is the whole byte string, not a digest: two sets
// share an entry only if they are byte-for-byte equal. It holds at most
// RecordSetCacheEntries sets and evicts the least recently used. Safe
// for concurrent use.
type RecordSetCache struct {
	mu      sync.Mutex
	lru     *list.List // of *recordSet, front = most recently used
	entries map[string]*list.Element
}

type recordSet struct {
	key     string
	records []*core.Record
}

// NewRecordSetCache returns an empty cache.
func NewRecordSetCache() *RecordSetCache {
	return &RecordSetCache{lru: list.New(), entries: make(map[string]*list.Element)}
}

// Records returns the certificates encoded in data and whether they came
// from the cache. The slice and the records are shared between every
// caller that passed the same bytes: read-only.
func (c *RecordSetCache) Records(data []byte) ([]*core.Record, bool, error) {
	c.mu.Lock()
	el, ok := c.entries[string(data)]
	if ok {
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if ok {
		return el.Value.(*recordSet).records, true, nil
	}
	var recs []*core.Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, false, fmt.Errorf("cluster: shard certificates: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[string(data)]; ok {
		// A concurrent miss on the same set inserted first; share its.
		c.lru.MoveToFront(el)
		return el.Value.(*recordSet).records, false, nil
	}
	key := string(data)
	c.entries[key] = c.lru.PushFront(&recordSet{key: key, records: recs})
	if c.lru.Len() > RecordSetCacheEntries {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*recordSet).key)
	}
	return recs, false, nil
}

// ExecuteShardFrame is the worker's whole POST /v2/internal/scan: split
// the frame (ReadShardRequest, under the body limit), resolve its
// certificate array through sets, and scan the rows straight off body.
// The shard.execute span records whether the array was a cache hit
// (records_cached) and its size (records_bytes).
func ExecuteShardFrame(ctx context.Context, body io.Reader, limit int64, sets *RecordSetCache, opts core.BatchOptions) (*api.ShardScanResponse, error) {
	ctx, span := trace.Start(ctx, "shard.execute")
	defer span.End()
	req, records, rows, err := ReadShardRequest(body, limit)
	if err == nil {
		span.SetInt("records_bytes", int64(len(records)))
		var cached bool
		req.Records, cached, err = sets.Records(records)
		span.SetAttr("records_cached", strconv.FormatBool(cached))
	}
	if err == nil && len(req.Records) == 0 {
		err = errors.New("cluster: shard scan needs at least one certificate")
	}
	if err != nil {
		span.SetError(err)
		return nil, err
	}
	return executeShard(ctx, span, req, rows, opts)
}

// ExecuteShard is the shard scan over the rows in req.Data — the
// in-process form of ExecuteShardFrame, and the single-node reference
// the cluster tests check the HTTP path against.
//
//wmlint:ignore reachable perfbench times it as cluster.execute_shard_ms; that module is not in the lint run's view
func ExecuteShard(ctx context.Context, req api.ShardScanRequest, opts core.BatchOptions) (*api.ShardScanResponse, error) {
	ctx, span := trace.Start(ctx, "shard.execute")
	defer span.End()
	return executeShard(ctx, span, req, strings.NewReader(req.Data), opts)
}

// executeShard is the worker half of the shard protocol: prepare one
// scanner per certificate in the request, run the one-pass
// multi-certificate block engine over the shard rows read from rows (in
// req.Format; req.Data is ignored), and return the partial tallies in
// wire form.
//
// span is the worker-side execution span: a child of the coordinator's
// dispatch span when the RPC carried traceparent (the server middleware
// joined it into ctx). Phase clocks ride the pipeline config only when
// the trace is sampled — ph stays nil otherwise and the zero-alloc scan
// path never reads a clock.
//
// opts supplies the worker-local execution knobs (scanner cache, hash
// kernel, default parallelism); the request's BlockRows overrides the
// block size per shard, and its Workers may lower the parallelism but
// never raise it. A certificate that fails to prepare fails the whole
// shard — the coordinator only ships records its own identical prep
// accepted, so a disagreement here means corrupt wire data, and failing
// loudly (the shard is retried, then the audit fails) beats merging a
// tally hole silently.
func executeShard(ctx context.Context, span *trace.Span, req api.ShardScanRequest, rows io.Reader, opts core.BatchOptions) (*api.ShardScanResponse, error) {
	span.SetInt("shard", int64(req.Shard))
	var ph *trace.Phases
	if span != nil {
		ph = &trace.Phases{}
	}

	schema, err := relation.ParseSchemaSpec(req.Schema)
	if err != nil {
		err = fmt.Errorf("cluster: shard %d schema: %w", req.Shard, err)
		span.SetError(err)
		return nil, err
	}
	// The zero-copy block readers feed pipeline.ScanMany pooled columnar
	// blocks: no per-row allocation between the wire and the tally.
	var src relation.BlockReader
	switch strings.ToLower(req.Format) {
	case "", "csv":
		src, err = relation.NewCSVBlockReader(rows, schema)
	case "jsonl":
		src = relation.NewJSONLBlockReader(rows, schema)
	default:
		err = fmt.Errorf("unknown format %q (want csv or jsonl)", req.Format)
	}
	if err != nil {
		err = fmt.Errorf("cluster: shard %d rows: %w", req.Shard, err)
		span.SetError(err)
		return nil, err
	}

	prep := core.PrepareBatch(req.Records, schema, opts)
	if errs := prep.Errs(); len(prep.Scanners()) != len(req.Records) {
		for i, err := range errs {
			if err != nil {
				err = fmt.Errorf("cluster: shard %d certificate %d: %w", req.Shard, i, err)
				span.SetError(err)
				return nil, err
			}
		}
	}

	tallies, err := pipeline.ScanMany(ctx, src, prep.Scanners(), pipeline.Config{
		Workers:   shardWorkers(req.Workers, opts.Workers),
		BlockRows: req.BlockRows,
		Progress:  opts.Progress,
		Phases:    ph,
	})
	if err != nil {
		span.SetError(err)
		return nil, err
	}
	if span != nil {
		kernel := string(opts.HashKernel)
		if kernel == "" {
			kernel = keyhash.ActiveKernel()
		}
		span.SetAttr("kernel", kernel)
	}
	ph.Annotate(span)
	resp := &api.ShardScanResponse{Shard: req.Shard, Tallies: make([]mark.TallyWire, len(tallies))}
	for j, t := range tallies {
		resp.Tallies[j] = t.Wire()
	}
	if len(tallies) > 0 {
		resp.Rows = tallies[0].Rows
		span.SetInt("rows", int64(tallies[0].Rows))
	}
	return resp, nil
}

// shardWorkers resolves a shard's worker count, both arguments in the
// Spec.Workers convention (0 sequential, negative NumCPU): the node's
// own count unless the request asks for fewer, since a request may
// lower it, never raise it.
func shardWorkers(requested, node int) int {
	resolve := func(w int) int {
		if w < 0 {
			return runtime.NumCPU()
		}
		return max(w, 1)
	}
	if requested == 0 {
		return resolve(node)
	}
	return min(resolve(requested), resolve(node))
}

// Agent keeps one worker joined to a coordinator: an initial registration
// followed by heartbeats at the coordinator's advertised interval, each a
// full (idempotent) re-registration — so a coordinator restart costs one
// missed beat, not the membership. Registration failures are retried at
// the same cadence; the worker serves shards regardless, since dispatch
// needs only the coordinator to know the worker, not vice versa. A
// failure is never silent: transitions are logged (once per change, not
// per beat — a down coordinator would spam otherwise) and the latest
// error is readable via LastError, which worker /healthz surfaces as
// heartbeat_error — so a -join against a typo'd URL or a non-coordinator
// is visible, not a cluster that quietly never forms.
type Agent struct {
	coordinator string
	reg         api.WorkerRegistration
	client      *client.Client
	log         *slog.Logger
	// beats counts registration attempts by result ("ok"/"error"), nil
	// without WithAgentObs.
	beats *obs.CounterVec

	stop   context.CancelFunc
	done   chan struct{}
	onBeat func(error) // test hook, observes each registration attempt

	mu      sync.Mutex
	lastErr error
	joined  bool // a registration has succeeded at least once
}

// AgentOption customises a StartAgent call.
type AgentOption func(*Agent)

// WithAgentLogger routes membership transitions (joined, heartbeat
// failing, recovered) to l.
func WithAgentLogger(l *slog.Logger) AgentOption {
	return func(a *Agent) { a.log = l }
}

// WithAgentObs registers the agent's wm_cluster_heartbeats_total
// family on r, counting registration attempts by result.
func WithAgentObs(r *obs.Registry) AgentOption {
	return func(a *Agent) {
		a.beats = r.CounterVec("wm_cluster_heartbeats_total",
			"Heartbeat registrations sent to the coordinator, by result.", "result")
	}
}

// withBeatHook observes registration attempts (tests only).
func withBeatHook(fn func(error)) AgentOption {
	return func(a *Agent) { a.onBeat = fn }
}

// StartAgent registers reg with the coordinator and starts the heartbeat
// loop. Stop the returned agent to leave the cluster (the coordinator
// notices through lease expiry — there is no explicit deregistration, so
// a crash and a clean stop look the same, which is the failure model the
// scheduler is built for anyway).
func StartAgent(coordinatorURL string, reg api.WorkerRegistration, opts ...AgentOption) *Agent {
	//wmlint:ignore ctxloop agent lifecycle outlives any single request; Agent.Stop cancels this root
	ctx, cancel := context.WithCancel(context.Background())
	a := &Agent{
		coordinator: coordinatorURL,
		reg:         reg,
		client:      client.New(coordinatorURL),
		stop:        cancel,
		done:        make(chan struct{}),
	}
	for _, o := range opts {
		o(a)
	}
	go a.loop(ctx)
	return a
}

// LastError reports the most recent registration attempt's failure, or
// nil when it succeeded (or none has completed yet).
func (a *Agent) LastError() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastErr
}

// observe records one registration outcome and logs transitions.
func (a *Agent) observe(err error) {
	a.mu.Lock()
	prev := a.lastErr
	wasJoined := a.joined
	a.lastErr = err
	if err == nil {
		a.joined = true
	}
	a.mu.Unlock()
	if a.beats != nil {
		result := "ok"
		if err != nil {
			result = "error"
		}
		a.beats.With(result).Inc()
	}
	if a.log == nil {
		return
	}
	switch {
	case err == nil && !wasJoined:
		a.log.Info("cluster: joined coordinator", "coordinator", a.coordinator, "advertise", a.reg.URL, "worker", a.reg.ID)
	case err == nil && prev != nil:
		a.log.Info("cluster: heartbeat recovered", "coordinator", a.coordinator)
	case err != nil && (prev == nil || prev.Error() != err.Error()):
		a.log.Warn("cluster: heartbeat failing", "coordinator", a.coordinator, "err", err)
	}
}

// Stop ends the heartbeat loop and waits for it to exit.
func (a *Agent) Stop() {
	a.stop()
	<-a.done
}

func (a *Agent) loop(ctx context.Context) {
	defer close(a.done)
	interval := DefaultHeartbeat
	timer := time.NewTimer(0) // first registration immediately
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		ack, err := a.client.RegisterWorker(ctx, a.reg)
		if ctx.Err() != nil {
			return // a Stop mid-request is not a heartbeat failure
		}
		a.observe(err)
		if a.onBeat != nil {
			a.onBeat(err)
		}
		if err == nil && ack.HeartbeatSeconds > 0 {
			interval = time.Duration(ack.HeartbeatSeconds * float64(time.Second))
		}
		timer.Reset(interval)
	}
}
