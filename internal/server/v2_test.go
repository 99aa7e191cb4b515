package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/jobs"
	"repro/internal/server/store"
)

// newTestServerWithClose builds a server whose job subsystem is shut
// down on cleanup, plus the raw Server for white-box assertions.
func newTestServerWithClose(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, srv
}

func doJSON(t *testing.T, method, url string, body, out any) (status int, header http.Header) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s response (status %d): %v", method, url, resp.StatusCode, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// TestV2RoutesServeSameAPI sanity-checks that the /v2 spellings of the
// synchronous endpoints behave like /v1.
func TestV2RoutesServeSameAPI(t *testing.T) {
	ts, _ := newTestServerWithClose(t, Config{Workers: 2})
	csv, domain := testCSV(t, 4000)

	var wmResp api.WatermarkResponse
	status, _ := doJSON(t, http.MethodPost, ts.URL+"/v2/watermark", api.WatermarkRequest{
		Schema: testSchemaSpec, Data: csv, Secret: "v2-secret",
		Attribute: "Item_Nbr", WM: "1011001110", E: 30, Domain: domain,
	}, &wmResp)
	if status != http.StatusOK || wmResp.ID == "" {
		t.Fatalf("v2 watermark: status %d, %+v", status, wmResp)
	}

	var vResp api.VerifyResponse
	status, _ = doJSON(t, http.MethodPost, ts.URL+"/v2/verify", api.VerifyRequest{
		ID: wmResp.ID, Schema: testSchemaSpec, Data: wmResp.Data,
	}, &vResp)
	if status != http.StatusOK || vResp.Match != 1 || vResp.Verdict != api.VerdictPresent {
		t.Fatalf("v2 verify: status %d, %+v", status, vResp)
	}

	var bResp api.BatchVerifyResponse
	status, _ = doJSON(t, http.MethodPost, ts.URL+"/v2/verify/batch", api.BatchVerifyRequest{
		Records: []string{wmResp.ID}, Schema: testSchemaSpec, Data: wmResp.Data,
	}, &bResp)
	if status != http.StatusOK || len(bResp.Results) != 1 || bResp.Results[0].Match != 1 {
		t.Fatalf("v2 batch verify: status %d, %+v", status, bResp)
	}

	var info api.RecordInfo
	if status, _ = doJSON(t, http.MethodGet, ts.URL+"/v2/records/"+wmResp.ID, nil, &info); status != http.StatusOK {
		t.Fatalf("v2 record info: status %d", status)
	}
	var del api.DeleteResponse
	if status, _ = doJSON(t, http.MethodDelete, ts.URL+"/v2/records/"+wmResp.ID, nil, &del); status != http.StatusOK || del.Deleted != wmResp.ID {
		t.Fatalf("v2 delete: status %d, %+v", status, del)
	}
	var e api.Error
	if status, _ = doJSON(t, http.MethodGet, ts.URL+"/v2/records/"+wmResp.ID, nil, &e); status != http.StatusNotFound || e.Code != api.CodeNotFound {
		t.Fatalf("deleted record still resolves: status %d, %+v", status, e)
	}
}

// TestUnmatchedRoutesWearEnvelope is the satellite fix: unknown methods
// on known paths reply 405 with an Allow header and the structured
// envelope; unknown paths reply 404 with code not_found — no empty
// bodies from the mux defaults.
func TestUnmatchedRoutesWearEnvelope(t *testing.T) {
	ts, _ := newTestServerWithClose(t, Config{Workers: 1})

	var e api.Error
	status, header := doJSON(t, http.MethodDelete, ts.URL+"/v1/watermark", nil, &e)
	if status != http.StatusMethodNotAllowed || e.Code != api.CodeMethodNotAllowed {
		t.Fatalf("DELETE on POST route: status %d, %+v", status, e)
	}
	if allow := header.Get("Allow"); !strings.Contains(allow, http.MethodPost) {
		t.Fatalf("Allow header %q does not list POST", allow)
	}

	status, header = doJSON(t, http.MethodPut, ts.URL+"/v1/records/00000000000000000000000000000000", nil, &e)
	if status != http.StatusMethodNotAllowed || e.Code != api.CodeMethodNotAllowed {
		t.Fatalf("PUT on records: status %d, %+v", status, e)
	}
	if allow := header.Get("Allow"); !strings.Contains(allow, http.MethodGet) || !strings.Contains(allow, http.MethodDelete) {
		t.Fatalf("Allow header %q does not list GET and DELETE", allow)
	}

	for _, path := range []string{"/v1/nope", "/v2/nope", "/totally/else"} {
		if status, _ = doJSON(t, http.MethodGet, ts.URL+path, nil, &e); status != http.StatusNotFound || e.Code != api.CodeNotFound {
			t.Fatalf("GET %s: status %d, %+v", path, status, e)
		}
	}
}

// TestErrorEnvelopeCarriesCode asserts ordinary handler failures carry
// machine-readable codes alongside the /v1-era message.
func TestErrorEnvelopeCarriesCode(t *testing.T) {
	ts, _ := newTestServerWithClose(t, Config{Workers: 1})
	var e api.Error
	status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/watermark", api.WatermarkRequest{
		Schema: "bogus", Data: "x", Secret: "s", Attribute: "A", WM: "101",
	}, &e)
	if status != http.StatusBadRequest || e.Code != api.CodeInvalidArgument || e.Message == "" {
		t.Fatalf("bad request envelope: status %d, %+v", status, e)
	}
	status, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/records/00000000000000000000000000000000", nil, &e)
	if status != http.StatusNotFound || e.Code != api.CodeNotFound {
		t.Fatalf("not found envelope: status %d, %+v", status, e)
	}
}

// TestRecordPagination walks /v2/records with the body cursor and
// /v1/records with the X-Next-After header cursor.
func TestRecordPagination(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool, 7)
	for i := 0; i < 7; i++ {
		id, err := st.Put(streamLimitRecord())
		if err != nil {
			t.Fatal(err)
		}
		want[id] = true
	}
	srv := New(st, Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	// /v2: cursor in the body.
	var got []string
	after := ""
	for page := 0; ; page++ {
		if page > 10 {
			t.Fatal("v2 pagination never terminated")
		}
		var list api.RecordList
		url := ts.URL + "/v2/records?limit=3"
		if after != "" {
			url += "&after=" + after
		}
		if status, _ := doJSON(t, http.MethodGet, url, nil, &list); status != http.StatusOK {
			t.Fatalf("v2 list: status %d", status)
		}
		got = append(got, list.Records...)
		if list.Next == "" {
			break
		}
		after = list.Next
	}
	if len(got) != len(want) {
		t.Fatalf("v2 walk returned %d ids, want %d", len(got), len(want))
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("v2 walk returned unknown id %s", id)
		}
	}

	// /v1: original body shape, cursor in the header.
	got = got[:0]
	after = ""
	for page := 0; ; page++ {
		if page > 10 {
			t.Fatal("v1 pagination never terminated")
		}
		var body map[string][]string
		url := ts.URL + "/v1/records?limit=3"
		if after != "" {
			url += "&after=" + after
		}
		status, header := doJSON(t, http.MethodGet, url, nil, &body)
		if status != http.StatusOK {
			t.Fatalf("v1 list: status %d", status)
		}
		got = append(got, body["records"]...)
		after = header.Get(api.NextAfterHeader)
		if after == "" {
			break
		}
	}
	if len(got) != len(want) {
		t.Fatalf("v1 walk returned %d ids, want %d", len(got), len(want))
	}
}

// TestJobLifecycleOverHTTP drives a verify_batch job from submission to
// done over raw HTTP and reads the per-certificate reports off the job
// resource.
func TestJobLifecycleOverHTTP(t *testing.T) {
	ts, _ := newTestServerWithClose(t, Config{Workers: 2})
	csv, domain := testCSV(t, 4000)
	owner, marked := watermarkFixture(t, ts, "job-owner", csv, domain)
	other, _ := watermarkFixture(t, ts, "job-other", csv, domain)

	var job api.Job
	status, _ := doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", api.JobRequest{
		Kind: api.JobKindVerifyBatch,
		VerifyBatch: &api.BatchVerifyRequest{
			Records: []string{owner, other},
			Schema:  testSchemaSpec,
			Data:    marked,
		},
	}, &job)
	if status != http.StatusAccepted || job.ID == "" {
		t.Fatalf("submit: status %d, %+v", status, job)
	}
	if job.State != api.JobQueued && job.State != api.JobRunning {
		t.Fatalf("fresh job state %s", job.State)
	}

	deadline := time.Now().Add(10 * time.Second)
	for !job.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.State)
		}
		time.Sleep(5 * time.Millisecond)
		if status, _ = doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+job.ID, nil, &job); status != http.StatusOK {
			t.Fatalf("poll: status %d", status)
		}
	}
	if job.State != api.JobDone || job.VerifyBatch == nil {
		t.Fatalf("final job: %+v", job)
	}
	if job.StartedAt == nil || job.FinishedAt == nil {
		t.Fatalf("done job missing timestamps: %+v", job)
	}
	if job.Progress != 4000 {
		t.Fatalf("done job progress %d, want 4000 (one tick per suspect tuple, not per certificate)", job.Progress)
	}
	if len(job.VerifyBatch.Results) != 2 ||
		job.VerifyBatch.Results[0].Match != 1 ||
		job.VerifyBatch.Results[0].Verdict != api.VerdictPresent ||
		job.VerifyBatch.Results[1].Verdict != api.VerdictAbsent {
		t.Fatalf("job results: %+v", job.VerifyBatch.Results)
	}

	// The finished job cannot be cancelled: 409 conflict.
	var e api.Error
	if status, _ = doJSON(t, http.MethodDelete, ts.URL+"/v2/jobs/"+job.ID, nil, &e); status != http.StatusConflict || e.Code != api.CodeConflict {
		t.Fatalf("cancel finished: status %d, %+v", status, e)
	}

	// And it shows up in the listing, newest first.
	var list api.JobList
	if status, _ = doJSON(t, http.MethodGet, ts.URL+"/v2/jobs", nil, &list); status != http.StatusOK || len(list.Jobs) != 1 || list.Jobs[0].ID != job.ID {
		t.Fatalf("job list: status %d, %+v", status, list)
	}
}

// TestJobValidationAndNotFound covers the submit-side envelope errors.
func TestJobValidationAndNotFound(t *testing.T) {
	ts, _ := newTestServerWithClose(t, Config{Workers: 1})

	var e api.Error
	status, _ := doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", api.JobRequest{Kind: "mystery"}, &e)
	if status != http.StatusBadRequest || e.Code != api.CodeInvalidArgument {
		t.Fatalf("unknown kind: status %d, %+v", status, e)
	}
	status, _ = doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", api.JobRequest{Kind: api.JobKindVerifyBatch}, &e)
	if status != http.StatusBadRequest || e.Code != api.CodeInvalidArgument {
		t.Fatalf("missing payload: status %d, %+v", status, e)
	}
	status, _ = doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/job-doesnotexist", nil, &e)
	if status != http.StatusNotFound || e.Code != api.CodeNotFound {
		t.Fatalf("unknown job: status %d, %+v", status, e)
	}

	// A failed job surfaces its typed error on the resource.
	var job api.Job
	status, _ = doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", api.JobRequest{
		Kind:        api.JobKindVerifyBatch,
		VerifyBatch: &api.BatchVerifyRequest{Schema: "", Data: ""},
	}, &job)
	if status != http.StatusAccepted {
		t.Fatalf("submit invalid payload: status %d (validation is async)", status)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !job.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.State)
		}
		time.Sleep(2 * time.Millisecond)
		doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+job.ID, nil, &job)
	}
	if job.State != api.JobFailed || job.Error == nil || job.Error.Code != api.CodeInvalidArgument {
		t.Fatalf("failed job: %+v, error %+v", job, job.Error)
	}
}

// TestHealthzReportsJobs asserts the liveness body now carries job-pool
// occupancy.
func TestHealthzReportsJobs(t *testing.T) {
	ts, _ := newTestServerWithClose(t, Config{Workers: 1, JobWorkers: 3})
	var h struct {
		Jobs struct {
			Workers int `json:"workers"`
		} `json:"jobs"`
	}
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &h); status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	if h.Jobs.Workers != 3 {
		t.Fatalf("healthz jobs: %+v", h)
	}
}

// TestQueueFullReplies429 saturates a single-worker, depth-1 queue with
// blocking jobs and asserts HTTP backpressure surfaces as 429 queue_full.
func TestQueueFullReplies429(t *testing.T) {
	ts, srv := newTestServerWithClose(t, Config{Workers: 1, JobWorkers: 1, JobQueueDepth: 1})
	csv, domain := testCSV(t, 3000)
	owner, marked := watermarkFixture(t, ts, "queue-owner", csv, domain)

	// Occupy the worker and the queue slot with jobs that park until the
	// server's Close cancels them, so the next HTTP submission must
	// bounce — deterministically, regardless of scan speed.
	started := make(chan struct{}, 1)
	block := func(ctx context.Context, _ *jobs.Progress) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if _, err := srv.jobs.Submit("blocker", block); err != nil {
		t.Fatal(err)
	}
	<-started // the worker holds the first blocker
	if _, err := srv.jobs.Submit("blocker", block); err != nil {
		t.Fatal(err)
	}

	var e api.Error
	status, _ := doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", api.JobRequest{
		Kind: api.JobKindVerifyBatch,
		VerifyBatch: &api.BatchVerifyRequest{
			Records: []string{owner}, Schema: testSchemaSpec, Data: marked,
		},
	}, &e)
	if status != http.StatusTooManyRequests || e.Code != api.CodeQueueFull {
		t.Fatalf("saturated submit: status %d, %+v (stats %+v)", status, e, srv.jobs.Stats())
	}
}
