package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/server/store"
)

// newClusterCoordinator spins a coordinator-role server (small shards so
// multi-worker audits really fan out) and returns it with its base URL.
func newClusterCoordinator(t *testing.T, shardRows int) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Config{
		Workers: 2,
		Cluster: ClusterConfig{
			Coordinator: true,
			Cluster:     cluster.Config{ShardRows: shardRows},
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// newClusterWorker spins a plain server (certificates travel in shard
// requests — a worker needs no catalog) behind an optional middleware
// for fault injection, and registers it with the coordinator.
func newClusterWorker(t *testing.T, coord *Server, id string, capacity int, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Config{Workers: 2})
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	coord.Coordinator().Register(api.WorkerRegistration{ID: id, URL: ts.URL, Capacity: capacity})
	return ts
}

// rawBody POSTs a streamed CSV body and returns the raw response bytes —
// the unit of the bit-identical acceptance checks.
func rawBody(t *testing.T, rawURL, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(rawURL, api.ContentTypeCSV, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestClusterAuditEquivalence is the acceptance contract end-to-end over
// HTTP: the same verify_batch against the same coordinator produces a
// byte-identical response body whether the scan ran locally (no workers
// joined yet) or fanned out across 1, 2 or 4 workers — certificates
// resolved from the same store, shards scanned by other processes'
// servers, partial tallies merged in row order.
func TestClusterAuditEquivalence(t *testing.T) {
	srv, ts := newClusterCoordinator(t, 700)
	csv, domain := testCSV(t, 6000)
	watermarkFixture(t, ts, "cluster-owner", csv, domain)
	owner, marked := watermarkFixture(t, ts, "cluster-owner-2", csv, domain)

	u := ts.URL + "/v2/verify/batch?schema=" + url.QueryEscape(testSchemaSpec)

	// Reference: no live workers — the coordinator degrades to the local
	// single-node scan.
	status, want := rawBody(t, u, marked)
	if status != http.StatusOK {
		t.Fatalf("local reference status %d: %s", status, want)
	}
	var wantResp api.BatchVerifyResponse
	if err := json.Unmarshal(want, &wantResp); err != nil {
		t.Fatal(err)
	}
	sawPresent := false
	for _, res := range wantResp.Results {
		if res.ID == owner && res.Verdict == "present" {
			sawPresent = true
		}
	}
	if !sawPresent {
		t.Fatalf("reference audit did not detect the owner: %+v", wantResp)
	}

	total := 0
	for _, n := range []int{1, 2, 4} {
		for total < n {
			newClusterWorker(t, srv, "w"+string(rune('0'+total)), 2, nil)
			total++
		}
		if got := srv.Coordinator().LiveWorkers(); got != n {
			t.Fatalf("LiveWorkers = %d, want %d", got, n)
		}
		status, got := rawBody(t, u, marked)
		if status != http.StatusOK {
			t.Fatalf("%d-worker status %d: %s", n, status, got)
		}
		if string(got) != string(want) {
			t.Fatalf("%d-worker response diverged from single-node scan:\n got  %s\n want %s", n, got, want)
		}
	}
}

// TestClusterAuditSurvivesWorkerDeath kills one of two workers mid-audit
// — its connections abort at the transport after it has scanned one
// shard, exactly what a killed process looks like to the coordinator —
// and asserts the audit completes with a byte-identical report, the
// shards retried on the survivor, and the dead worker marked not live.
func TestClusterAuditSurvivesWorkerDeath(t *testing.T) {
	srv, ts := newClusterCoordinator(t, 400)
	csv, domain := testCSV(t, 6000)
	watermarkFixture(t, ts, "death-owner", csv, domain)
	_, marked := watermarkFixture(t, ts, "death-owner-2", csv, domain)
	u := ts.URL + "/v2/verify/batch?schema=" + url.QueryEscape(testSchemaSpec)

	status, want := rawBody(t, u, marked) // local reference, before workers join
	if status != http.StatusOK {
		t.Fatalf("local reference status %d", status)
	}

	newClusterWorker(t, srv, "survivor", 2, nil)
	var scans atomic.Int64
	newClusterWorker(t, srv, "victim", 2, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/v2/internal/scan") && scans.Add(1) > 1 {
				panic(http.ErrAbortHandler) // died after its first shard
			}
			next.ServeHTTP(w, r)
		})
	})

	status, got := rawBody(t, u, marked)
	if status != http.StatusOK {
		t.Fatalf("audit with dying worker: status %d: %s", status, got)
	}
	if string(got) != string(want) {
		t.Fatalf("worker death changed the audit report:\n got  %s\n want %s", got, want)
	}
	if scans.Load() < 2 {
		t.Fatal("the victim was never exercised past its first shard — nothing was killed mid-audit")
	}
	for _, w := range srv.Coordinator().Status().Workers {
		if w.ID == "victim" && w.Live {
			t.Fatal("victim still marked live after transport death")
		}
		if w.ID == "survivor" && !w.Live {
			t.Fatal("survivor lost its lease")
		}
	}
}

// TestClusterJobProgressAggregation runs the distributed audit as an
// async job: the verify_batch dispatches to the cluster and the job's
// progress counter aggregates completed shards across workers, landing
// exactly on the corpus size.
func TestClusterJobProgressAggregation(t *testing.T) {
	srv, ts := newClusterCoordinator(t, 500)
	csv, domain := testCSV(t, 4000)
	owner, marked := watermarkFixture(t, ts, "job-owner", csv, domain)
	newClusterWorker(t, srv, "w0", 2, nil)
	newClusterWorker(t, srv, "w1", 2, nil)

	var job api.Job
	status := postJSON(t, ts.URL+"/v2/jobs", api.JobRequest{
		Kind: api.JobKindVerifyBatch,
		VerifyBatch: &api.BatchVerifyRequest{
			Schema: testSchemaSpec,
			Data:   marked,
		},
	}, &job)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %+v", status, job)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !job.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.State)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := http.Get(ts.URL + "/v2/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if job.State != api.JobDone {
		t.Fatalf("job %s: %+v", job.State, job.Error)
	}
	if job.Progress != 4000 {
		t.Fatalf("aggregated progress = %d, want 4000", job.Progress)
	}
	found := false
	for _, res := range job.VerifyBatch.Results {
		if res.ID == owner {
			found = true
			if res.Verdict != "present" || res.Match != 1 {
				t.Fatalf("owner result: %+v", res)
			}
		}
	}
	if !found {
		t.Fatalf("owner missing from results: %+v", job.VerifyBatch)
	}
}

// TestClusterHealthzRoles checks /healthz's cluster block on all three
// roles: a coordinator reports live workers with heartbeat ages, a
// joined worker names its coordinator, a plain server says single.
func TestClusterHealthzRoles(t *testing.T) {
	srv, ts := newClusterCoordinator(t, 0)
	newClusterWorker(t, srv, "hw", 3, nil)

	var health struct {
		Cluster api.ClusterStatus `json:"cluster"`
	}
	getJSON := func(baseURL string) {
		t.Helper()
		resp, err := http.Get(baseURL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
	}
	getJSON(ts.URL)
	if health.Cluster.Role != api.RoleCoordinator || health.Cluster.LiveWorkers != 1 {
		t.Fatalf("coordinator healthz: %+v", health.Cluster)
	}
	if len(health.Cluster.Workers) != 1 || health.Cluster.Workers[0].ID != "hw" ||
		health.Cluster.Workers[0].LastHeartbeatAgeSeconds < 0 ||
		health.Cluster.Workers[0].LastHeartbeatAgeSeconds > 60 {
		t.Fatalf("coordinator worker entry: %+v", health.Cluster.Workers)
	}

	// A worker that joins THROUGH the agent (the -join path): its healthz
	// names the coordinator, and its heartbeats appear in the
	// coordinator's table.
	wst, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wsrv := New(wst, Config{Cluster: ClusterConfig{JoinURL: ts.URL, WorkerID: "agent-worker", Capacity: 2}})
	wts := httptest.NewServer(wsrv.Handler())
	defer func() { wts.Close(); wsrv.Close() }()
	wsrv.cfg.Cluster.AdvertiseURL = wts.URL
	wsrv.Join()

	getJSON(wts.URL)
	if health.Cluster.Role != api.RoleWorker || health.Cluster.Coordinator != ts.URL {
		t.Fatalf("worker healthz: %+v", health.Cluster)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Coordinator().LiveWorkers() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("agent-joined worker never registered with the coordinator")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Plain single-node server.
	plain := newTestServer(t)
	getJSON(plain.URL)
	if health.Cluster.Role != api.RoleSingle {
		t.Fatalf("plain healthz: %+v", health.Cluster)
	}
}

// TestJobLongPollHandler pins the GET /v2/jobs/{id}?wait=… surface: the
// response advertises the long-poll cap, a wait on a finished job
// returns it immediately, and a malformed wait is invalid_argument.
func TestJobLongPollHandler(t *testing.T) {
	ts := newTestServer(t)
	csv, domain := testCSV(t, 2000)
	_, marked := watermarkFixture(t, ts, "lp-owner", csv, domain)

	var job api.Job
	status := postJSON(t, ts.URL+"/v2/jobs", api.JobRequest{
		Kind:        api.JobKindVerifyBatch,
		VerifyBatch: &api.BatchVerifyRequest{Schema: testSchemaSpec, Data: marked},
	}, &job)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}

	// Long-poll to terminal: one parked request per state change at most,
	// never the full wait once the job is done.
	deadline := time.Now().Add(30 * time.Second)
	for !job.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.State)
		}
		resp, err := http.Get(ts.URL + "/v2/jobs/" + job.ID + "?wait=5s")
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Header.Get(api.LongPollMaxHeader); got != MaxLongPollWait.String() {
			t.Fatalf("%s = %q, want %q", api.LongPollMaxHeader, got, MaxLongPollWait)
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if job.State != api.JobDone {
		t.Fatalf("job ended %s: %+v", job.State, job.Error)
	}

	// A wait on an already-terminal job returns without parking.
	start := time.Now()
	resp, err := http.Get(ts.URL + "/v2/jobs/" + job.ID + "?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("terminal long-poll parked for %v", elapsed)
	}

	var e api.Error
	resp, err = http.Get(ts.URL + "/v2/jobs/" + job.ID + "?wait=bogus")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeInvalidArgument {
		t.Fatalf("bogus wait: status %d, code %s", resp.StatusCode, e.Code)
	}
}

// TestClusterErrClassification pins the error-code parity between the
// local and distributed audit paths: body-limit trips stay 413, cluster
// infrastructure failures are internal, malformed suspects stay 400.
func TestClusterErrClassification(t *testing.T) {
	cases := []struct {
		err  error
		code string
	}{
		{&http.MaxBytesError{Limit: 64}, api.CodePayloadTooLarge},
		{cluster.ErrNoWorkers, api.CodeInternal},
		{fmt.Errorf("cluster: shard 3 failed on 3 workers, last error: x"), api.CodeInternal},
		{fmt.Errorf("relation: reading CSV row 7: wrong arity"), api.CodeInvalidArgument},
		{context.Canceled, api.CodeCancelled},
	}
	for _, tc := range cases {
		if got := clusterErr(tc.err).Code; got != tc.code {
			t.Errorf("clusterErr(%v).Code = %s, want %s", tc.err, got, tc.code)
		}
	}
}
