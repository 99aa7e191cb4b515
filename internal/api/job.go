package api

import "time"

// Job kinds accepted by POST /v2/jobs.
const (
	// JobKindWatermark embeds a watermark asynchronously; the payload is
	// a WatermarkRequest.
	JobKindWatermark = "watermark"
	// JobKindVerifyBatch audits a suspect dataset against many stored
	// certificates asynchronously; the payload is a BatchVerifyRequest.
	JobKindVerifyBatch = "verify_batch"
)

// JobState is the lifecycle state of an async job.
//
//	queued ──▶ running ──▶ done
//	   │          │    ╰──▶ failed
//	   ╰──────────┴───────▶ cancelled
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final — no further transitions.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobRequest is the POST /v2/jobs body: a kind plus exactly the matching
// payload. The server decodes it with DecodeBody, which unescapes the
// payload's inline data string in one pass inside the request buffer;
// a suspect too large to hold in memory is better streamed as a raw
// text/csv or application/x-ndjson body to POST /v2/verify/batch.
type JobRequest struct {
	// Kind is one of the JobKind* constants.
	Kind string `json:"kind"`
	// Watermark is the payload when Kind is JobKindWatermark.
	Watermark *WatermarkRequest `json:"watermark,omitempty"`
	// VerifyBatch is the payload when Kind is JobKindVerifyBatch.
	VerifyBatch *BatchVerifyRequest `json:"verify_batch,omitempty"`
}

// Job is the job resource returned by every /v2/jobs endpoint.
type Job struct {
	ID    string   `json:"id"`
	Kind  string   `json:"kind"`
	State JobState `json:"state"`
	// CreatedAt/StartedAt/FinishedAt timestamp the lifecycle; the latter
	// two are unset while the job has not reached them.
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Progress is the number of tuples the job has processed so far —
	// live while the job runs (poll GET /v2/jobs/{id} to watch a corpus
	// audit advance), final once it stops. Always present — list items
	// included, so dashboards render progress without an N+1 poll of
	// every job — and zero until the job starts metering work.
	Progress int64 `json:"progress"`
	// Error is set when State is failed (why it failed) or cancelled
	// (code "cancelled").
	Error *Error `json:"error,omitempty"`
	// Watermark holds the result of a done watermark job.
	Watermark *WatermarkResponse `json:"watermark,omitempty"`
	// VerifyBatch holds the result of a done verify_batch job.
	VerifyBatch *BatchVerifyResponse `json:"verify_batch,omitempty"`
	// TraceID is the submitting request's hex trace ID — the handle GET
	// /v2/jobs/{id}/trace resolves. Empty when the server runs without
	// tracing.
	TraceID string `json:"trace_id,omitempty"`
}

// JobList is the GET /v2/jobs reply, newest first.
type JobList struct {
	Jobs []Job `json:"jobs"`
}

// LongPollMaxHeader is the response header GET /v2/jobs/{id} advertises
// long-poll support with: its value is the longest ?wait=<duration> the
// server will honor (a Go duration string). Clients that see it switch
// from sleep-and-poll to parked requests that return the moment the job
// changes state; clients that don't keep polling and lose nothing.
const LongPollMaxHeader = "X-Long-Poll-Max"
