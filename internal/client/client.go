// Package client is the Go SDK for the wmserver HTTP API — the
// programmatic face of the ownership-audit service. It speaks the /v2
// routes exclusively, marshals the shared wire types of internal/api,
// and turns error envelopes back into typed *api.Error values callers
// can dispatch on:
//
//	c := client.New("http://localhost:8080")
//	wm, err := c.Watermark(ctx, api.WatermarkRequest{...})
//	job, err := c.SubmitJob(ctx, api.JobRequest{Kind: api.JobKindVerifyBatch, ...})
//	job, err = c.WaitJob(ctx, job.ID, 0)         // poll to a terminal state
//	var apiErr *api.Error
//	if errors.As(err, &apiErr) && apiErr.Code == api.CodeNotFound { ... }
//
// Every method takes a context.Context; cancelling it aborts the HTTP
// exchange, and — because the server threads request contexts into its
// scan pipeline — also stops the server-side work the call started.
// VerifyStream and VerifyBatchStream upload suspect datasets as raw
// text/csv or application/x-ndjson bodies straight from an io.Reader, so
// a multi-gigabyte corpus flows from disk to the server's detection
// pipeline without either side materializing it.
//
// wmtool's remote mode (-server) is built entirely on this package.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// Client talks to one wmserver base URL. The zero value is not usable;
// construct with New.
type Client struct {
	base string
	hc   *http.Client
}

// Option customises a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). The default is http.DefaultClient.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New builds a client for the server at baseURL (e.g.
// "http://localhost:8080"); a trailing slash is tolerated.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do runs one JSON exchange: method+path with an optional JSON request
// body, decoding a 2xx response into out (unless nil) and any error
// status into a typed *api.Error.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", api.ContentTypeJSON)
	}
	return c.exchange(req, out)
}

// exchange sends req and decodes the response.
func (c *Client) exchange(req *http.Request, out any) error {
	_, err := c.exchangeHeader(req, out)
	return err
}

// exchangeHeader is exchange surfacing the response headers, for the few
// calls that read advertisement headers (long-poll discovery). Headers
// are returned only on success.
func (c *Client) exchangeHeader(req *http.Request, out any) (http.Header, error) {
	var header http.Header
	err := c.exchangeBody(req, func(resp *http.Response) error {
		header = resp.Header
		if out == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
			return nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("client: decoding response: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return header, nil
}

// exchangeBody sends req and hands a 2xx response to decode; any other
// status becomes a typed *api.Error.
func (c *Client) exchangeBody(req *http.Request, decode func(*http.Response) error) error {
	// Propagate the caller's request ID (when its ctx carries one) so a
	// coordinator's shard fan-out — and any other downstream hop — stays
	// correlatable with the API call that caused it.
	if id := obs.RequestID(req.Context()); id != "" && req.Header.Get(obs.RequestIDHeader) == "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	// Same for the W3C trace context: a downstream server span joins the
	// caller's trace instead of minting its own, which is what stitches a
	// coordinator's dispatch span and the worker's shard execution into
	// one tree.
	if sc, ok := trace.FromContext(req.Context()); ok && req.Header.Get(trace.Header) == "" {
		req.Header.Set(trace.Header, sc.Traceparent())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeAPIError(resp)
	}
	return decode(resp)
}

// decodeAPIError reconstructs the typed error from an error response. A
// body that is not an envelope (a proxy's HTML, an empty 502) still
// yields an *api.Error, with the code derived from the status.
func decodeAPIError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var e api.Error
	if err := json.Unmarshal(data, &e); err == nil && e.Message != "" {
		if e.Code == "" {
			e.Code = api.CodeForStatus(resp.StatusCode)
		}
		return &e
	}
	msg := strings.TrimSpace(string(data))
	if msg == "" {
		msg = resp.Status
	}
	return api.Errorf(api.CodeForStatus(resp.StatusCode), "%s", msg)
}

// Watermark embeds a watermark synchronously: the relation travels
// inline, the certificate is stored server-side, and the marked data
// comes back.
func (c *Client) Watermark(ctx context.Context, req api.WatermarkRequest) (*api.WatermarkResponse, error) {
	var out api.WatermarkResponse
	if err := c.do(ctx, http.MethodPost, "/v2/watermark", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Verify checks one inline suspect relation against a stored (by ID) or
// inline certificate — the materialized path, with remap recovery and
// the frequency channel in play.
func (c *Client) Verify(ctx context.Context, req api.VerifyRequest) (*api.VerifyResponse, error) {
	var out api.VerifyResponse
	if err := c.do(ctx, http.MethodPost, "/v2/verify", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// VerifyBatch audits one inline suspect relation against many stored
// certificates in a single server-side scan. Empty req.Records means the
// whole catalog.
func (c *Client) VerifyBatch(ctx context.Context, req api.BatchVerifyRequest) (*api.BatchVerifyResponse, error) {
	var out api.BatchVerifyResponse
	if err := c.do(ctx, http.MethodPost, "/v2/verify/batch", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// StreamOptions parameterise the raw-body verify calls.
type StreamOptions struct {
	// Schema is the schema-spec string of the uploaded rows (required).
	Schema string
	// ContentType is api.ContentTypeCSV (default) or
	// api.ContentTypeNDJSON, and must match the body's format.
	ContentType string
	// Workers optionally overrides the server's scan parallelism.
	Workers int
}

func (o StreamOptions) contentType() string {
	if o.ContentType == "" {
		return api.ContentTypeCSV
	}
	return o.ContentType
}

// VerifyStream checks a suspect dataset streamed from body against ONE
// stored certificate. Rows flow from the reader to the server's
// detection pipeline without being materialized on either side; only the
// primary channel is scored (one-pass scan).
func (c *Client) VerifyStream(ctx context.Context, recordID string, body io.Reader, opts StreamOptions) (*api.VerifyResponse, error) {
	q := url.Values{"id": {recordID}, "schema": {opts.Schema}}
	if opts.Workers > 0 {
		q.Set("workers", strconv.Itoa(opts.Workers))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v2/verify?"+q.Encode(), body)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Content-Type", opts.contentType())
	var out api.VerifyResponse
	if err := c.exchange(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// VerifyBatchStream audits a suspect dataset streamed from body against
// many stored certificates (all of them when recordIDs is empty) in one
// server-side scan — the corpus-audit primitive.
func (c *Client) VerifyBatchStream(ctx context.Context, recordIDs []string, body io.Reader, opts StreamOptions) (*api.BatchVerifyResponse, error) {
	q := url.Values{"schema": {opts.Schema}}
	if len(recordIDs) > 0 {
		q.Set("records", strings.Join(recordIDs, ","))
	}
	if opts.Workers > 0 {
		q.Set("workers", strconv.Itoa(opts.Workers))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v2/verify/batch?"+q.Encode(), body)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Content-Type", opts.contentType())
	var out api.BatchVerifyResponse
	if err := c.exchange(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ---- cluster-internal RPCs ----
//
// These two calls speak the coordinator/worker protocol of
// internal/cluster. They are exported because the coordinator and the
// worker agent are themselves SDK consumers, but the routes they hit are
// cluster-internal: ScanShard request bodies carry certificates with
// their owner secrets, so they must never cross the cluster's trust
// boundary.

// RegisterWorker announces (or re-announces — it doubles as the
// heartbeat) a scan worker to a coordinator and returns the lease terms
// the coordinator expects it to heartbeat under.
func (c *Client) RegisterWorker(ctx context.Context, reg api.WorkerRegistration) (*api.WorkerAck, error) {
	var out api.WorkerAck
	if err := c.do(ctx, http.MethodPost, "/v2/internal/workers", reg, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ErrInvalidResponse marks a 2xx reply whose body arrived whole but did
// not decode: the server answered, so a caller must not treat it as
// unreachable. A failure to read the body wraps the read error instead.
var ErrInvalidResponse = errors.New("invalid response")

// ScanShard asks a worker to scan one row-range shard of a suspect corpus
// against a certificate set, returning one partial tally per
// certificate. records is the JSON encoding of that set, in place of
// req.Records — a caller sending many shards of one job encodes it once.
// The body is framed as api.ContentTypeShard: the header
// (api.ShardHeader), records, then req.Data verbatim, so neither the
// certificates nor the rows are re-encoded or copied on their way to the
// wire. The binary reply (api.ContentTypeTally) is read up to maxReply
// bytes (api.MaxShardResponseLen); a longer, mistyped or undecodable
// reply is an error wrapping ErrInvalidResponse.
func (c *Client) ScanShard(ctx context.Context, req api.ShardScanRequest, records []byte, maxReply int64) (*api.ShardScanResponse, error) {
	hdr, err := api.ShardHeader(req, len(records))
	if err != nil {
		return nil, fmt.Errorf("client: encoding shard header: %w", err)
	}
	rows := req.Data
	body := func() io.Reader {
		return io.MultiReader(bytes.NewReader(hdr), bytes.NewReader(records), strings.NewReader(rows))
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v2/internal/scan", body())
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	hreq.ContentLength = int64(len(hdr) + len(records) + len(rows))
	// NewRequest sets no GetBody for a MultiReader; without one the
	// transport could not replay the request on a stale keep-alive
	// connection and would fail the shard instead.
	hreq.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(body()), nil }
	hreq.Header.Set("Content-Type", api.ContentTypeShard)
	var out api.ShardScanResponse
	err = c.exchangeBody(hreq, func(resp *http.Response) error {
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxReply+1))
		if err != nil {
			return fmt.Errorf("client: reading shard reply: %w", err)
		}
		if int64(len(data)) > maxReply {
			return fmt.Errorf("client: shard reply exceeds %d bytes: %w", maxReply, ErrInvalidResponse)
		}
		if mt, _, _ := mime.ParseMediaType(resp.Header.Get("Content-Type")); mt != api.ContentTypeTally {
			return fmt.Errorf("client: shard reply has content type %q, want %s: %w", mt, api.ContentTypeTally, ErrInvalidResponse)
		}
		if err := out.UnmarshalBinary(data); err != nil {
			return fmt.Errorf("client: %v: %w", err, ErrInvalidResponse)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// ---- async jobs ----

// SubmitJob enqueues an async job (api.JobKindWatermark or
// api.JobKindVerifyBatch) and returns the queued resource immediately.
// A full queue surfaces as *api.Error with code queue_full.
func (c *Client) SubmitJob(ctx context.Context, req api.JobRequest) (*api.Job, error) {
	var out api.Job
	if err := c.do(ctx, http.MethodPost, "/v2/jobs", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job polls one job by ID.
func (c *Client) Job(ctx context.Context, id string) (*api.Job, error) {
	job, _, err := c.jobPoll(ctx, id, 0)
	return job, err
}

// jobPoll fetches one job resource. wait > 0 long-polls: the server
// parks the request until the job changes state or the wait elapses
// (GET /v2/jobs/{id}?wait=…). The returned advertised duration is the
// server's long-poll cap from the X-Long-Poll-Max header, or 0 when the
// server does not advertise long-polling.
func (c *Client) jobPoll(ctx context.Context, id string, wait time.Duration) (*api.Job, time.Duration, error) {
	path := c.base + "/v2/jobs/" + url.PathEscape(id)
	if wait > 0 {
		path += "?wait=" + url.QueryEscape(wait.String())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("client: %w", err)
	}
	var out api.Job
	header, err := c.exchangeHeader(req, &out)
	if err != nil {
		return nil, 0, err
	}
	var advertised time.Duration
	if h := header.Get(api.LongPollMaxHeader); h != "" {
		if d, perr := time.ParseDuration(h); perr == nil && d > 0 {
			advertised = d
		}
	}
	return &out, advertised, nil
}

// Jobs lists the server's retained jobs, newest first.
func (c *Client) Jobs(ctx context.Context) ([]api.Job, error) {
	var out api.JobList
	if err := c.do(ctx, http.MethodGet, "/v2/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// CancelJob requests cancellation. A queued job is cancelled outright; a
// running job's scan workers are stopped through its context and the job
// reaches the cancelled state shortly after — use WaitJob to observe the
// transition. Cancelling a finished job yields code conflict.
func (c *Client) CancelJob(ctx context.Context, id string) (*api.Job, error) {
	var out api.Job
	if err := c.do(ctx, http.MethodDelete, "/v2/jobs/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DefaultPollInterval paces WaitJob when the caller passes 0.
const DefaultPollInterval = 250 * time.Millisecond

// Defaults for WaitOptions' zero values: start polling fast enough that
// short jobs return promptly, back off geometrically so day-long audits
// cost a handful of requests a minute, and jitter each delay so a fleet
// of waiting clients never thunders in phase.
const (
	DefaultWaitInitial    = 100 * time.Millisecond
	DefaultWaitMax        = 5 * time.Second
	DefaultWaitMultiplier = 1.6
	DefaultWaitJitter     = 0.2
)

// WaitOptions tunes WaitJobWith's polling loop.
type WaitOptions struct {
	// Initial is the delay after the first poll; <= 0 means
	// DefaultWaitInitial.
	Initial time.Duration
	// Max caps the grown delay; <= 0 means DefaultWaitMax. Setting
	// Initial == Max fixes the interval.
	Max time.Duration
	// Multiplier grows the delay after each poll; values <= 1 mean
	// DefaultWaitMultiplier (set Initial == Max for a constant rate
	// instead).
	Multiplier float64
	// Jitter is the fraction of every delay randomized away: a delay d
	// sleeps between d*(1-Jitter) and d. 0 means DefaultWaitJitter;
	// negative disables jitter.
	Jitter float64
	// Notify, when non-nil, observes every polled job resource — the
	// hook progress displays hang off (Job.Progress is the server's
	// tuples-processed counter). It runs on the polling goroutine;
	// returning promptly keeps the cadence honest.
	Notify func(*api.Job)
}

// WaitJobWith polls until the job reaches a terminal state (done,
// failed, cancelled) under capped exponential backoff with jitter, and
// returns the final resource; the outcome of failed and cancelled jobs
// is in Job.Error, not in WaitJobWith's error (which reports
// transport/ctx problems only).
//
// When the server advertises long-polling (the X-Long-Poll-Max header on
// job GETs), the wait prefers it: instead of sleeping its backoff delay
// and then polling, it sends that delay as ?wait= and lets the SERVER
// park the request — same request cadence when nothing happens, but the
// terminal state comes back the moment it is reached instead of up to a
// full backoff delay late. Notify fires on every poll either way, so
// progress displays keep their cadence. Against servers that do not
// advertise it, the sleep-then-poll loop is unchanged.
func (c *Client) WaitJobWith(ctx context.Context, id string, o WaitOptions) (*api.Job, error) {
	delay := o.Initial
	if delay <= 0 {
		delay = DefaultWaitInitial
	}
	max := o.Max
	if max <= 0 {
		max = DefaultWaitMax
	}
	mult := o.Multiplier
	if mult <= 1 {
		mult = DefaultWaitMultiplier
	}
	jitter := o.Jitter
	if jitter == 0 {
		jitter = DefaultWaitJitter
	} else if jitter > 1 {
		jitter = 1 // a fraction: anything larger would go negative and hot-loop
	}
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	var longPoll time.Duration // server's advertised cap; first poll discovers it
	longPollOK := true
	for {
		job, advertised, err := c.jobPoll(ctx, id, longPoll)
		if err != nil && longPoll > 0 && ctx.Err() == nil {
			// A parked request can outlive the caller's own
			// http.Client.Timeout (safe before long-polling existed, when
			// every poll returned instantly). Treat the failure as an
			// empty poll: retry plainly and stop parking for the rest of
			// this wait rather than flapping on every request.
			longPollOK = false
			job, _, err = c.jobPoll(ctx, id, 0)
		}
		if err != nil {
			return nil, err
		}
		if o.Notify != nil {
			o.Notify(job)
		}
		if job.State.Terminal() {
			return job, nil
		}
		d := min(delay, max)
		if jitter > 0 {
			d = time.Duration(float64(d) * (1 - jitter*rand.Float64()))
		}
		if advertised > 0 && longPollOK {
			// Long-poll the next request for the delay we would have
			// slept — the server returns early on any state change.
			longPoll = min(d, advertised)
		} else {
			longPoll = 0
			timer.Reset(d)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-timer.C:
			}
		}
		if next := time.Duration(float64(delay) * mult); next > delay {
			delay = next // guard against overflow freezing the growth
		} else {
			delay = max
		}
	}
}

// WaitJob polls at a fixed interval until the job reaches a terminal
// state — WaitJobWith with Initial == Max and no jitter. poll <= 0 means
// DefaultPollInterval. Prefer WaitJobWith's backoff for long audits.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*api.Job, error) {
	if poll <= 0 {
		poll = DefaultPollInterval
	}
	return c.WaitJobWith(ctx, id, WaitOptions{
		Initial: poll, Max: poll, Jitter: -1,
	})
}

// JobTrace fetches a job's assembled cross-process span tree. Available
// once the job was submitted to a tracing server; jobs whose trace was
// never sampled (and never errored) come back with zero spans.
func (c *Client) JobTrace(ctx context.Context, id string) (*api.JobTrace, error) {
	var out api.JobTrace
	if err := c.do(ctx, http.MethodGet, "/v2/jobs/"+url.PathEscape(id)+"/trace", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TraceSpans fetches one server's retained spans of a trace — the
// cluster-internal route a coordinator assembles worker-side subtrees
// from.
func (c *Client) TraceSpans(ctx context.Context, traceID string) ([]api.TraceSpan, error) {
	var out api.TraceSpanList
	if err := c.do(ctx, http.MethodGet, "/v2/internal/trace/"+url.PathEscape(traceID), nil, &out); err != nil {
		return nil, err
	}
	return out.Spans, nil
}

// LogLevel reads the server's active log level.
func (c *Client) LogLevel(ctx context.Context) (string, error) {
	var out api.LogLevelResponse
	if err := c.do(ctx, http.MethodGet, "/debug/loglevel", nil, &out); err != nil {
		return "", err
	}
	return out.Level, nil
}

// SetLogLevel changes the server's log level at runtime (debug, info,
// warn, error) and returns the level now in effect.
func (c *Client) SetLogLevel(ctx context.Context, level string) (string, error) {
	var out api.LogLevelResponse
	if err := c.do(ctx, http.MethodPut, "/debug/loglevel", api.LogLevelRequest{Level: level}, &out); err != nil {
		return "", err
	}
	return out.Level, nil
}

// ---- record resources ----

// Records lists one page of stored certificate IDs: up to limit IDs
// strictly after the cursor (limit 0 means no bound), plus the cursor
// for the next page.
func (c *Client) Records(ctx context.Context, limit int, after string) (*api.RecordList, error) {
	q := url.Values{}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if after != "" {
		q.Set("after", after)
	}
	path := "/v2/records"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	var out api.RecordList
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AllRecords walks the cursor to exhaustion and returns every stored ID,
// pageSize IDs per request (0 means a server-friendly default of 1000).
func (c *Client) AllRecords(ctx context.Context, pageSize int) ([]string, error) {
	if pageSize <= 0 {
		pageSize = 1000
	}
	var ids []string
	after := ""
	for {
		page, err := c.Records(ctx, pageSize, after)
		if err != nil {
			return nil, err
		}
		ids = append(ids, page.Records...)
		if page.Next == "" {
			return ids, nil
		}
		after = page.Next
	}
}

// Record fetches one certificate's public shape (secret redacted).
func (c *Client) Record(ctx context.Context, id string) (*api.RecordInfo, error) {
	var out api.RecordInfo
	if err := c.do(ctx, http.MethodGet, "/v2/records/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteRecord drops a stored certificate.
func (c *Client) DeleteRecord(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v2/records/"+url.PathEscape(id), nil, nil)
}

// Health fetches the liveness body as loose JSON.
func (c *Client) Health(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}
