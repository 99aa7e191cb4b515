// The /v2/jobs endpoints: corpus-scale audits and embeddings as async
// job resources on the bounded worker pool of internal/jobs. The
// submitting request returns 202 immediately; the work runs under the
// job's own context, which DELETE /v2/jobs/{id} (and server shutdown)
// cancels — and because the whole execution stack is context-threaded,
// cancellation stops the scan mid-pass.
package server

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req api.JobRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// The job outlives this request, but its work should stay
	// correlatable with the submission: re-attach the submitting
	// request's ID to the job context the manager hands the Func, so a
	// coordinator's shard fan-out carries it to every worker.
	reqID := obs.RequestID(r.Context())
	withReqID := func(ctx context.Context) context.Context {
		return obs.WithRequestID(ctx, reqID)
	}
	var fn jobs.Func
	switch req.Kind {
	case api.JobKindWatermark:
		if req.Watermark == nil {
			writeErr(w, api.Errorf(api.CodeInvalidArgument,
				"job kind %q needs a watermark payload", req.Kind))
			return
		}
		payload := *req.Watermark
		fn = func(ctx context.Context, p *jobs.Progress) (any, error) {
			resp, aerr := s.execWatermark(withReqID(ctx), payload, p.Add)
			if aerr != nil {
				return nil, aerr
			}
			return resp, nil
		}
	case api.JobKindVerifyBatch:
		if req.VerifyBatch == nil {
			writeErr(w, api.Errorf(api.CodeInvalidArgument,
				"job kind %q needs a verify_batch payload", req.Kind))
			return
		}
		payload := *req.VerifyBatch
		fn = func(ctx context.Context, p *jobs.Progress) (any, error) {
			resp, aerr := s.execVerifyBatch(withReqID(ctx), payload, p.Add)
			if aerr != nil {
				return nil, aerr
			}
			return resp, nil
		}
	default:
		writeErr(w, api.Errorf(api.CodeInvalidArgument,
			"unknown job kind %q (want %s or %s)", req.Kind,
			api.JobKindWatermark, api.JobKindVerifyBatch))
		return
	}

	// Capture the submitting request's span context so the job's queue
	// and run spans — and through them the whole distributed fan-out —
	// land in the same trace as the POST that started it.
	sc, _ := trace.FromContext(r.Context())
	snap, err := s.jobs.Submit(req.Kind, fn, jobs.WithSpanContext(sc))
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		writeErr(w, api.Errorf(api.CodeQueueFull,
			"job queue is full — back off and resubmit"))
		return
	case err != nil:
		writeErr(w, api.Errorf(api.CodeInternal, "%v", err))
		return
	}
	writeJSON(w, http.StatusAccepted, jobToAPI(snap))
}

// MaxLongPollWait caps how long one GET /v2/jobs/{id}?wait=<duration>
// request may park server-side; longer waits are truncated, and the cap
// is advertised in the X-Long-Poll-Max response header so clients size
// their waits to it.
const MaxLongPollWait = 30 * time.Second

// handleGetJob is GET /v2/jobs/{id}. Plain requests return the job
// resource immediately. With ?wait=<duration> the request long-polls:
// the server parks it until the job's state changes (queued→running
// counts), the job is already terminal, the wait elapses, or the client
// disconnects — then replies with the job as it stands. One parked
// request replaces a client-side polling loop.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var snap jobs.Snapshot
	var err error
	if waitRaw := r.URL.Query().Get("wait"); waitRaw != "" {
		wait, perr := time.ParseDuration(waitRaw)
		if perr != nil || wait < 0 {
			writeErr(w, api.Errorf(api.CodeInvalidArgument, "invalid wait %q", waitRaw))
			return
		}
		snap, err = s.jobs.WaitChange(r.Context(), id, min(wait, MaxLongPollWait))
	} else {
		snap, err = s.jobs.Get(id)
	}
	if errors.Is(err, jobs.ErrNotFound) {
		writeErr(w, api.Errorf(api.CodeNotFound, "%v: %s", err, id))
		return
	} else if err != nil {
		writeErr(w, api.Errorf(api.CodeInternal, "%v", err))
		return
	}
	w.Header().Set(api.LongPollMaxHeader, MaxLongPollWait.String())
	writeJSON(w, http.StatusOK, jobToAPI(snap))
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	snaps := s.jobs.List()
	list := api.JobList{Jobs: make([]api.Job, len(snaps))}
	for i, snap := range snaps {
		list.Jobs[i] = jobToAPI(snap)
	}
	writeJSON(w, http.StatusOK, list)
}

// handleCancelJob is DELETE /v2/jobs/{id}. A queued job is cancelled
// outright; a running job has its context cancelled and reaches the
// cancelled state once its scan workers exit — poll GET /v2/jobs/{id}
// for the transition. Cancelling a finished job is a conflict.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	snap, err := s.jobs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeErr(w, api.Errorf(api.CodeNotFound, "%v: %s", err, r.PathValue("id")))
		return
	case errors.Is(err, jobs.ErrFinished):
		writeErr(w, api.Errorf(api.CodeConflict,
			"job %s already finished (%s)", snap.ID, snap.State))
		return
	case err != nil:
		writeErr(w, api.Errorf(api.CodeInternal, "%v", err))
		return
	}
	writeJSON(w, http.StatusOK, jobToAPI(snap))
}

// jobToAPI renders a manager snapshot as the wire resource.
func jobToAPI(snap jobs.Snapshot) api.Job {
	j := api.Job{
		ID:        snap.ID,
		Kind:      snap.Kind,
		State:     api.JobState(snap.State),
		CreatedAt: snap.Created,
		Progress:  snap.Progress,
		TraceID:   snap.TraceID,
	}
	if !snap.Started.IsZero() {
		j.StartedAt = timePtr(snap.Started)
	}
	if !snap.Finished.IsZero() {
		j.FinishedAt = timePtr(snap.Finished)
	}
	switch snap.State {
	case jobs.StateCancelled:
		j.Error = api.Errorf(api.CodeCancelled, "job cancelled")
	case jobs.StateFailed:
		var aerr *api.Error
		if errors.As(snap.Err, &aerr) {
			j.Error = aerr
		} else {
			j.Error = api.Errorf(api.CodeInternal, "%v", snap.Err)
		}
	case jobs.StateDone:
		switch res := snap.Result.(type) {
		case *api.WatermarkResponse:
			j.Watermark = res
		case *api.BatchVerifyResponse:
			j.VerifyBatch = res
		}
	}
	return j
}

func timePtr(t time.Time) *time.Time { return &t }
