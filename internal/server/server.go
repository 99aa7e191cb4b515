// Package server exposes the watermarking system as a JSON HTTP service —
// the corpus-scale front door the CLI cannot be: many embed/verify jobs
// running concurrently, each internally parallelized by the chunked
// worker pool of internal/pipeline, with certificates persisted in an
// on-disk record store.
//
// The wire contract — every request, response, resource and error shape —
// lives in internal/api and is shared with the internal/client Go SDK;
// this package only binds those types to routes. Two route generations
// serve the same types:
//
//	POST   /v1/watermark      POST   /v2/watermark       embed, persist the certificate
//	POST   /v1/verify         POST   /v2/verify          verify one suspect
//	POST   /v1/verify/batch   POST   /v2/verify/batch    verify against many certificates in ONE scan
//	GET    /v1/records        GET    /v2/records         list certificates (cursor pagination)
//	GET    /v1/records/{id}   GET    /v2/records/{id}    inspect a certificate (secret redacted)
//	DELETE /v1/records/{id}   DELETE /v2/records/{id}    drop a certificate
//	                          POST   /v2/jobs            submit an async job (watermark | verify_batch)
//	                          GET    /v2/jobs            list jobs, newest first
//	                          GET    /v2/jobs/{id}       poll a job
//	                          DELETE /v2/jobs/{id}       cancel a job
//	                          GET    /v2/jobs/{id}/trace assembled cross-process span tree
//	GET    /healthz                                      liveness probe
//	GET    /debug/traces                                 flight recorder (slowest + errored)
//	GET/PUT /debug/loglevel                              runtime log level
//
// /v1 responses are bit-compatible with their original shapes (the error
// envelope gained only the machine-readable "code" field; /v1 record
// listings paginate via the X-Next-After response header, /v2 via the
// "next" body field). Jobs are /v2-only: long corpus audits run on the
// bounded worker pool of internal/jobs and are polled, not awaited, by
// the submitting request.
//
// Every handler threads its request context into the execution stack, so
// a disconnected client stops the scan work it started; job cancellation
// and server shutdown travel the same way. Relations travel either inline
// in JSON request/response bodies as CSV (default) or JSONL text plus the
// schema-spec grammar of internal/relation, or — on the verify endpoints —
// as RAW streamed request bodies: POST with Content-Type text/csv or
// application/x-ndjson and the rows flow straight from the socket into
// the detection pipeline block by block, never materialized in a request
// struct (parameters travel as query strings). Prepared certificate state
// is cached across requests (core.ScannerCache), so auditing many
// suspects against a registered catalog re-derives keys and domains once.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/keyhash"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/relation"
	"repro/internal/server/store"
)

// DefaultMaxBodyBytes bounds request bodies (relations travel inline).
const DefaultMaxBodyBytes = 256 << 20 // 256 MiB

// Config parameterises a Server.
type Config struct {
	// Workers is the default per-request worker count for the pipeline;
	// <= 0 means runtime.NumCPU(). Requests may override it downward or
	// upward with their own "workers" field.
	Workers int
	// MaxBodyBytes caps request body size; <= 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// ScannerCacheEntries bounds the prepared-certificate cache; 0 means
	// core.DefaultScannerCacheEntries, negative disables the cache.
	ScannerCacheEntries int
	// JobWorkers bounds how many async jobs run concurrently; <= 0 means
	// jobs.DefaultWorkers.
	JobWorkers int
	// JobQueueDepth bounds queued-but-not-running jobs; beyond it POST
	// /v2/jobs replies 429. <= 0 means jobs.DefaultQueueDepth.
	JobQueueDepth int
	// JobRetain bounds how many finished jobs stay pollable; <= 0 means
	// jobs.DefaultRetain.
	JobRetain int
	// HashKernel pins the batched keyed-hash backend every scan on this
	// server runs on (wmserver -kernel). Empty means keyhash.KernelAuto:
	// the backend keyhash.AutoKind picks from this CPU's features.
	// Verdicts are identical across backends.
	HashKernel keyhash.KernelKind
	// Cluster selects the distributed-audit role (single node by
	// default): a coordinator fans verify_batch audits out across joined
	// workers, a worker heartbeats a coordinator and serves shard scans.
	Cluster ClusterConfig
	// Log, when non-nil, receives one structured line per request (with
	// its request ID) plus cluster membership and dispatch events.
	Log *slog.Logger
	// LogLevel, when non-nil, is the dynamic level behind Log (build Log
	// with obs.NewLogger over this var); PUT /debug/loglevel adjusts it
	// at runtime. Nil leaves the level fixed and the endpoint a 404.
	LogLevel *slog.LevelVar
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (wmserver
	// -pprof). Off by default: profiles expose process internals.
	EnablePprof bool
	// Trace configures the span recorder behind GET /v2/jobs/{id}/trace
	// and GET /debug/traces. The zero value keeps the recorder on with
	// head sampling off: errored requests and the flight recorder still
	// retain spans, and a sampled inbound traceparent is still honored —
	// so a traced coordinator sees its workers' spans without per-worker
	// flags. wmserver's -trace-sample flag sets the ratio.
	Trace trace.Options
	// TraceOff disables the span recorder entirely: no root spans, no
	// flight recorder, trace endpoints reply 404.
	TraceOff bool
}

// Server handles the HTTP API. Create with New, serve via Handler, and
// Close when done — Close cancels running async jobs.
type Server struct {
	store *store.Store
	cfg   Config
	cache *core.ScannerCache
	jobs  *jobs.Manager
	// recordSets caches the certificate arrays of shard frames this
	// server executes, decoded, by their exact bytes.
	recordSets *cluster.RecordSetCache
	coord      *cluster.Coordinator // nil unless Config.Cluster.Coordinator
	agent      *cluster.Agent       // nil until Join on a worker
	mux        *http.ServeMux
	started    time.Time
	// obs is this server's metrics registry — every subsystem registers
	// into it, GET /metrics renders it, /healthz snapshots it.
	obs     *obs.Registry
	httpMet *obs.HTTPMetrics
	// trace is this server's span recorder; nil with Config.TraceOff
	// (every trace call site is nil-safe).
	trace *trace.Recorder
}

// New builds a Server over an opened record store.
func New(st *store.Store, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{store: st, cfg: cfg, mux: http.NewServeMux(), started: time.Now(), recordSets: cluster.NewRecordSetCache()}
	s.obs = obs.NewRegistry()
	s.httpMet = obs.NewHTTPMetrics(s.obs)
	if !cfg.TraceOff {
		s.trace = trace.New(cfg.Trace)
	}
	if cfg.ScannerCacheEntries >= 0 {
		s.cache = core.NewScannerCache(cfg.ScannerCacheEntries)
	}
	s.registerProcessMetrics()
	s.jobs = jobs.NewManager(jobs.Config{
		Workers:    cfg.JobWorkers,
		QueueDepth: cfg.JobQueueDepth,
		Retain:     cfg.JobRetain,
		Obs:        s.obs,
		Trace:      s.trace,
	})
	// Every server executes shards; only a coordinator takes
	// registrations (elsewhere the route 404s, so a stray -join against a
	// non-coordinator fails loudly instead of silently heartbeating).
	s.mux.HandleFunc("POST /v2/internal/scan", s.handleInternalScan)
	if cfg.Cluster.Coordinator {
		copts := []cluster.CoordinatorOption{cluster.WithObs(s.obs)}
		if cfg.Log != nil {
			copts = append(copts, cluster.WithLogger(cfg.Log))
		}
		s.coord = cluster.NewCoordinator(cfg.Cluster.Cluster, copts...)
		s.mux.HandleFunc("POST /v2/internal/workers", s.handleRegisterWorker)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.trace != nil {
		s.mux.HandleFunc("GET /v2/internal/trace/{id}", s.handleInternalTrace)
		s.mux.HandleFunc("GET /v2/jobs/{id}/trace", s.handleJobTrace)
		s.mux.HandleFunc("GET /debug/traces", s.handleFlight)
	}
	if cfg.LogLevel != nil {
		s.mux.HandleFunc("GET /debug/loglevel", s.handleGetLogLevel)
		s.mux.HandleFunc("PUT /debug/loglevel", s.handleSetLogLevel)
	}
	if cfg.EnablePprof {
		s.mountPprof()
	}
	for _, v := range []string{"/v1", "/v2"} {
		s.mux.HandleFunc("POST "+v+"/watermark", s.handleWatermark)
		s.mux.HandleFunc("POST "+v+"/verify", s.handleVerify)
		s.mux.HandleFunc("POST "+v+"/verify/batch", s.handleVerifyBatch)
		s.mux.HandleFunc("GET "+v+"/records/{id}", s.handleGetRecord)
		s.mux.HandleFunc("DELETE "+v+"/records/{id}", s.handleDeleteRecord)
	}
	s.mux.HandleFunc("GET /v1/records", s.handleListRecordsV1)
	s.mux.HandleFunc("GET /v2/records", s.handleListRecordsV2)
	s.mux.HandleFunc("POST /v2/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("GET /v2/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v2/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v2/jobs/{id}", s.handleCancelJob)
	return s
}

// Close stops the async-job subsystem — running jobs are cancelled
// through their contexts and their scan workers exit mid-pass — and, on
// a cluster worker, the heartbeat agent (the coordinator notices through
// lease expiry).
func (s *Server) Close() {
	if s.agent != nil {
		s.agent.Stop()
	}
	s.jobs.Close()
}

// DrainLongPolls makes parked GET /v2/jobs/{id}?wait= requests answer
// immediately (with their current snapshot) instead of waiting out their
// timers. Register it with http.Server.RegisterOnShutdown so a graceful
// drain is bounded by in-flight scan work, never by long-poll waits.
func (s *Server) DrainLongPolls() {
	s.jobs.Drain()
}

// Handler returns the root handler — the one middleware every request
// crosses: request-ID assignment (honoring an inbound X-Request-ID so a
// coordinator's fan-out stays correlated), the request's server span
// (joining an inbound traceparent the same way), body limiting,
// per-route metrics, structured 404/405 replies, and structured
// logging. Infrastructure traffic — /metrics scrapes, /healthz probes,
// /debug/* — is excluded from the per-route metrics, the request log
// and the span recorder: a 15-second scrape loop would otherwise
// dominate all three with data nobody audits.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get(obs.RequestIDHeader)
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		ctx := obs.WithRequestID(r.Context(), reqID)
		w.Header().Set(obs.RequestIDHeader, reqID)
		rec := &obs.ResponseRecorder{ResponseWriter: w}
		_, pattern := s.mux.Handler(r)
		route := routeLabel(pattern)
		infra := infraPath(r.URL.Path)
		var span *trace.Span
		if !infra {
			// Registered patterns already carry the method ("POST /v2/jobs");
			// only the unmatched bucket needs it prepended.
			name := route
			if pattern == "" {
				name = r.Method + " " + route
			}
			ctx, span = s.trace.StartServer(ctx, name, r.Header.Get(trace.Header))
			defer span.End()
		}
		r = r.WithContext(ctx)
		r.Body = http.MaxBytesReader(rec, r.Body, s.cfg.MaxBodyBytes)
		s.httpMet.InFlight.Inc()
		if pattern == "" {
			// The mux default would reply with an empty-bodied 404/405;
			// every error this API emits carries the envelope instead.
			s.handleUnmatched(rec, r)
		} else {
			s.mux.ServeHTTP(rec, r)
		}
		s.httpMet.InFlight.Dec()
		elapsed := time.Since(start)
		span.SetAttr("request_id", reqID)
		span.SetInt("status", int64(rec.Status()))
		if rec.Status() >= 500 {
			span.SetError(fmt.Errorf("HTTP %d", rec.Status()))
		}
		if infra {
			return
		}
		s.httpMet.Observe(route, r.Method, rec.Status(), elapsed, rec.Bytes())
		if s.cfg.Log != nil {
			s.cfg.Log.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("request_id", reqID),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", rec.Status()),
				slog.Int64("bytes", rec.Bytes()),
				slog.Duration("duration", elapsed))
		}
	})
}

// infraPath reports operational endpoints whose traffic is plumbing,
// not workload: excluded from request metrics, logs and traces.
func infraPath(p string) bool {
	return p == "/metrics" || p == "/healthz" || p == "/debug" || strings.HasPrefix(p, "/debug/")
}

// probeMethods are the methods handleUnmatched tests a path against to
// build the Allow header.
var probeMethods = []string{
	http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut,
	http.MethodPatch, http.MethodDelete, http.MethodOptions,
}

// handleUnmatched serves requests no registered pattern claims: a path
// that exists under another method gets 405 with an Allow header, an
// unknown path gets 404 — both wearing the structured error envelope.
func (s *Server) handleUnmatched(w http.ResponseWriter, r *http.Request) {
	var allowed []string
	for _, m := range probeMethods {
		if m == r.Method {
			continue
		}
		probe := &http.Request{Method: m, URL: r.URL, Host: r.Host}
		if _, pattern := s.mux.Handler(probe); pattern != "" {
			allowed = append(allowed, m)
		}
	}
	if len(allowed) > 0 {
		w.Header().Set("Allow", strings.Join(allowed, ", "))
		writeErr(w, api.Errorf(api.CodeMethodNotAllowed,
			"method %s not allowed for %s (allow: %s)", r.Method, r.URL.Path, strings.Join(allowed, ", ")))
		return
	}
	writeErr(w, api.Errorf(api.CodeNotFound, "no such route: %s %s", r.Method, r.URL.Path))
}

// writeJSON replies with v as compact JSON (pipe through jq to read it).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // headers are out; nothing left to report
}

// writeErr emits a typed api error with its canonical status.
func writeErr(w http.ResponseWriter, e *api.Error) {
	writeJSON(w, e.HTTPStatus(), e)
}

// decodeBody decodes a JSON request body, distinguishing a size-limit
// rejection (413, the client can shrink and retry) from a malformed
// request (400, retrying is pointless). The body must be exactly one
// JSON value: bytes after it other than whitespace are malformed too.
// Bodies that carry a suspect relation go through api.DecodeBody, which
// unescapes the suspect in one pass inside the buffer readBody filled,
// so the decoded Data string aliases that buffer and reaches the row
// readers without another copy; every other body is plain
// encoding/json. Returns false after replying.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	data, err := readBody(r, s.cfg.MaxBodyBytes)
	if err == nil {
		err = api.DecodeBody(data, v)
	}
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeErr(w, api.Errorf(api.CodePayloadTooLarge,
				"request body exceeds %d bytes", maxErr.Limit))
			return false
		}
		writeErr(w, api.Errorf(api.CodeInvalidArgument, "decoding request: %v", err))
		return false
	}
	return true
}

// readBody reads the (already size-limited) request body whole into one
// buffer sized up front from Content-Length — capped at limit, so a
// declared length cannot make the server allocate past the body limit —
// which spares the copies of growing the buffer as the body arrives.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if r.ContentLength > 0 {
		buf.Grow(int(min(r.ContentLength, limit)) + bytes.MinRead) // room to read EOF
	}
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// decodeRelation parses an inline relation payload.
func decodeRelation(schemaSpec, format, data string) (*relation.Relation, *relation.Schema, error) {
	if schemaSpec == "" {
		return nil, nil, errors.New("missing schema")
	}
	if data == "" {
		return nil, nil, errors.New("missing data")
	}
	schema, err := relation.ParseSchemaSpec(schemaSpec)
	if err != nil {
		return nil, nil, err
	}
	var r *relation.Relation
	switch strings.ToLower(format) {
	case "", "csv":
		r, err = relation.ReadCSV(strings.NewReader(data), schema)
	case "jsonl":
		r, err = relation.ReadJSONL(strings.NewReader(data), schema)
	default:
		return nil, nil, fmt.Errorf("unknown format %q (want csv or jsonl)", format)
	}
	if err != nil {
		return nil, nil, err
	}
	return r, schema, nil
}

// requestMediaType extracts the bare media type of a request body.
func requestMediaType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return ""
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return ct
	}
	return mt
}

func isStreamType(mt string) bool {
	return mt == api.ContentTypeCSV || mt == api.ContentTypeNDJSON
}

// rowReaderForFormat builds a streaming reader for an inline payload
// format name ("csv" or "jsonl"): one of the zero-copy block readers,
// whose views serve every engine — rows for the row-at-a-time paths,
// blocks for pipeline.ScanMany's columnar path, and record skims for
// cluster.ScanShards' shard cutter.
func rowReaderForFormat(format string, rd io.Reader, schema *relation.Schema) (relation.RawShardSource, error) {
	switch strings.ToLower(format) {
	case "", "csv":
		return relation.NewCSVBlockReader(rd, schema)
	case "jsonl":
		return relation.NewJSONLBlockReader(rd, schema), nil
	default:
		return nil, fmt.Errorf("unknown format %q (want csv or jsonl)", format)
	}
}

// payloadReaderForFormat is rowReaderForFormat over a payload held in
// memory. A JSONL payload is read in place (relation.NewJSONLPayloadReader),
// so the cluster coordinator's shards alias it instead of copying it.
func payloadReaderForFormat(format, data string, schema *relation.Schema) (relation.RawShardSource, error) {
	if strings.ToLower(format) == "jsonl" {
		return relation.NewJSONLPayloadReader(data, schema), nil
	}
	return rowReaderForFormat(format, strings.NewReader(data), schema)
}

// streamRowReader builds a block reader over a raw streamed request body.
func streamRowReader(body io.Reader, mt, schemaSpec string) (relation.RawShardSource, error) {
	if schemaSpec == "" {
		return nil, errors.New("missing schema query parameter")
	}
	schema, err := relation.ParseSchemaSpec(schemaSpec)
	if err != nil {
		return nil, err
	}
	switch mt {
	case api.ContentTypeCSV:
		return rowReaderForFormat("csv", body, schema)
	case api.ContentTypeNDJSON:
		return rowReaderForFormat("jsonl", body, schema)
	default:
		return nil, fmt.Errorf("unsupported content type %q", mt)
	}
}

// encodeRelation renders a relation back into a payload string.
func encodeRelation(r *relation.Relation, format string) (string, error) {
	var b strings.Builder
	var err error
	switch strings.ToLower(format) {
	case "", "csv":
		err = relation.WriteCSV(&b, r)
	case "jsonl":
		err = relation.WriteJSONL(&b, r)
	default:
		err = fmt.Errorf("unknown format %q", format)
	}
	return b.String(), err
}

// workersFor resolves a request's worker override against the server
// default.
func (s *Server) workersFor(requested int) int {
	if requested > 0 {
		return requested
	}
	return s.cfg.Workers
}

// ---- HTTP handlers: thin decode/reply shells over the exec layer ----

func (s *Server) handleWatermark(w http.ResponseWriter, r *http.Request) {
	var req api.WatermarkRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	resp, aerr := s.execWatermark(r.Context(), req, nil)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	if mt := requestMediaType(r); isStreamType(mt) {
		s.handleVerifyStream(w, r, mt)
		return
	}
	var req api.VerifyRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	resp, aerr := s.execVerify(r.Context(), req)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleVerifyStream serves POST verify with a raw text/csv or
// application/x-ndjson body: the suspect rows flow from the socket into
// the detection pipeline without ever being materialized server-side.
// Parameters travel as query strings — id (a stored certificate,
// required), schema (the schema spec), workers. Only the primary channel
// is scored: the stream is consumed in one pass, so the remap-recovery
// and frequency-channel rescans of the materialized path do not apply.
func (s *Server) handleVerifyStream(w http.ResponseWriter, r *http.Request, mt string) {
	q := r.URL.Query()
	id := q.Get("id")
	if id == "" {
		writeErr(w, api.Errorf(api.CodeInvalidArgument,
			"streaming verify needs an id query parameter naming a stored certificate"))
		return
	}
	src, err := streamRowReader(r.Body, mt, q.Get("schema"))
	if err != nil {
		writeErr(w, api.Errorf(api.CodeInvalidArgument, "relation: %v", err))
		return
	}
	workers, _ := strconv.Atoi(q.Get("workers"))
	batch, aerr := s.execVerifyBatchScan(r.Context(), []string{id}, true, src, workers, nil)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	res := batch.Results[0]
	if res.Error != "" {
		writeErr(w, api.Errorf(api.CodeInvalidArgument, "verify: %s", res.Error))
		return
	}
	writeJSON(w, http.StatusOK, api.VerifyResponse{
		Match:             res.Match,
		Detected:          res.Detected,
		Verdict:           res.Verdict,
		FrequencyMatch:    -1,
		FalsePositiveProb: falsePositiveForDetected(res.Detected),
	})
}

// handleVerifyBatch verifies one uploaded suspect dataset against many
// stored certificates in a single scan (core.VerifyBatch): the audit
// primitive for "does anyone's watermark survive in this corpus?".
func (s *Server) handleVerifyBatch(w http.ResponseWriter, r *http.Request) {
	if mt := requestMediaType(r); isStreamType(mt) {
		q := r.URL.Query()
		ids := splitIDs(q.Get("records"))
		workers, _ := strconv.Atoi(q.Get("workers"))
		src, err := streamRowReader(r.Body, mt, q.Get("schema"))
		if err != nil {
			writeErr(w, api.Errorf(api.CodeInvalidArgument, "relation: %v", err))
			return
		}
		resp, aerr := s.execVerifyBatchScan(r.Context(), ids, len(ids) != 0, src, workers, nil)
		if aerr != nil {
			writeErr(w, aerr)
			return
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	var req api.BatchVerifyRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	resp, aerr := s.execVerifyBatch(r.Context(), req, nil)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// splitIDs parses a comma-separated records selection, tolerating blanks.
func splitIDs(raw string) []string {
	var ids []string
	for _, id := range strings.Split(raw, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	return ids
}

// ---- record resources ----

func (s *Server) handleGetRecord(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, aerr := s.loadStoredRecord(id)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, api.RecordInfo{
		ID:                  id,
		Attribute:           rec.Attribute,
		KeyAttr:             rec.KeyAttr,
		WMBits:              len(rec.WM),
		E:                   rec.E,
		Bandwidth:           rec.Bandwidth,
		DomainSize:          len(rec.Domain),
		HasFrequencyChannel: rec.HasFrequencyChannel,
	})
}

func (s *Server) handleDeleteRecord(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	err := s.store.Delete(id)
	if errors.Is(err, store.ErrNotFound) {
		writeErr(w, api.Errorf(api.CodeNotFound, "%v", err))
		return
	} else if err != nil {
		writeErr(w, api.Errorf(api.CodeInternal, "%v", err))
		return
	}
	writeJSON(w, http.StatusOK, api.DeleteResponse{Deleted: id})
}

// listPage parses the shared pagination query parameters and walks the
// store. Returns ok=false after replying on a bad parameter.
func (s *Server) listPage(w http.ResponseWriter, r *http.Request) (page api.RecordList, ok bool) {
	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, api.Errorf(api.CodeInvalidArgument, "invalid limit %q", v))
			return page, false
		}
		if n == 0 {
			// Historical /v1 semantics: limit=0 truncates to nothing.
			page.Records = []string{}
			return page, true
		}
		limit = n
	}
	ids, next, err := s.store.ListPage(q.Get("after"), limit)
	if err != nil {
		writeErr(w, api.Errorf(api.CodeInternal, "%v", err))
		return page, false
	}
	if ids == nil {
		ids = []string{}
	}
	page.Records, page.Next = ids, next
	return page, true
}

// handleListRecordsV1 keeps the original body shape {"records": [...]};
// the next-page cursor travels in the X-Next-After header.
func (s *Server) handleListRecordsV1(w http.ResponseWriter, r *http.Request) {
	page, ok := s.listPage(w, r)
	if !ok {
		return
	}
	if page.Next != "" {
		w.Header().Set(api.NextAfterHeader, page.Next)
	}
	writeJSON(w, http.StatusOK, map[string][]string{"records": page.Records})
}

// handleListRecordsV2 returns the full RecordList resource, cursor in the
// body.
func (s *Server) handleListRecordsV2(w http.ResponseWriter, r *http.Request) {
	page, ok := s.listPage(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, page)
}

// selectedKernel is the concrete hash backend this server's scans run
// on: the pinned HashKernel, else the KernelAuto rule's pick.
func (s *Server) selectedKernel() keyhash.KernelKind {
	if s.cfg.HashKernel == keyhash.KernelAuto {
		return keyhash.AutoKind()
	}
	return s.cfg.HashKernel
}

// handleHealthz is a thin view over the metrics registry: every numeric
// field is read from the same Snapshot that GET /metrics renders, so
// the two surfaces cannot drift. (The cluster block keeps its
// structured role/membership shape; its numbers come from the same
// membership table the wm_cluster_* sampled families read.)
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.obs.Snapshot()
	body := map[string]any{
		"status":         "ok",
		"uptime_seconds": int(snap["wm_uptime_seconds"]),
		"workers":        s.cfg.Workers,
		"jobs": jobs.Stats{
			Workers:   int(snap["wm_jobs_workers"]),
			Queued:    int(snap["wm_jobs_queued"]),
			Running:   int(snap["wm_jobs_running"]),
			Retained:  int(snap["wm_jobs_retained"]),
			QueueCap:  int(snap["wm_jobs_queue_capacity"]),
			RetainCap: int(snap["wm_jobs_retain_capacity"]),
		},
		"cluster": s.clusterStatus(),
	}
	// The hash-kernel block: which batched keyed-hash backend scans on
	// this node run on, and whether it was pinned (-kernel) or picked by
	// the KernelAuto rule. Same source as wm_keyhash_selected_kernel.
	body["hash_kernel"] = map[string]any{
		"selected": string(s.selectedKernel()),
		"pinned":   s.cfg.HashKernel != keyhash.KernelAuto,
	}
	if s.cache != nil {
		body["scanner_cache"] = core.CacheStats{
			Entries: int(snap["wm_scanner_cache_entries"]),
			Hits:    uint64(snap["wm_scanner_cache_hits_total"]),
			Misses:  uint64(snap["wm_scanner_cache_misses_total"]),
		}
	}
	writeJSON(w, http.StatusOK, body)
}
