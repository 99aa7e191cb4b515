package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/keyhash"
	"repro/internal/obs"
)

// scrapeMetrics GETs /metrics and parses the exposition into a
// series→value map keyed by `name{label="v",...}` (or bare `name`).
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// metricSum adds every series whose key starts with prefix — the way to
// assert "this family is nonzero" without pinning label values.
func metricSum(m map[string]float64, prefix string) float64 {
	var sum float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// submitBatchJob submits a verify_batch job and returns its resource.
func submitBatchJob(t *testing.T, baseURL string, req api.BatchVerifyRequest, header http.Header) api.Job {
	t.Helper()
	body, err := json.Marshal(api.JobRequest{Kind: api.JobKindVerifyBatch, VerifyBatch: &req})
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, baseURL+"/v2/jobs", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", api.ContentTypeJSON)
	for k, vs := range header {
		hreq.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job api.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %+v", resp.StatusCode, job)
	}
	return job
}

// waitJobDone polls until the job reaches a terminal state.
func waitJobDone(t *testing.T, baseURL, id string) api.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var job api.Job
		if s := getJSON(t, baseURL+"/v2/jobs/"+id, &job); s != http.StatusOK {
			t.Fatalf("get job status %d", s)
		}
		if job.State == api.JobDone || job.State == api.JobFailed || job.State == api.JobCancelled {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, job.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMetricsEndpointExposesAllLayers drives one request through each
// instrumented layer and asserts the corresponding families show up on
// /metrics with sane values.
func TestMetricsEndpointExposesAllLayers(t *testing.T) {
	ts, _ := newTestServerWithClose(t, Config{Workers: 2})
	csv, domain := testCSV(t, 3000)
	owner, marked := watermarkFixture(t, ts, "metrics-owner", csv, domain)

	job := submitBatchJob(t, ts.URL, api.BatchVerifyRequest{
		Records: []string{owner}, Schema: testSchemaSpec, Data: marked,
	}, nil)
	final := waitJobDone(t, ts.URL, job.ID)
	if final.State != api.JobDone {
		t.Fatalf("job finished %s: %+v", final.State, final.Error)
	}

	// The server counts a request after writing its response, so the
	// reply to the last job poll can arrive before that poll is counted.
	// Poll /metrics (bounded) until the HTTP layer has caught up, then
	// assert.
	m := scrapeMetrics(t, ts.URL)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); m = scrapeMetrics(t, ts.URL) {
		if metricSum(m, `wm_http_requests_total{`) >= 3 && metricSum(m, `wm_http_request_duration_seconds_count{`) >= 3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// HTTP layer: the watermark and job calls above must be counted as
	// 2xx, and the duration histogram must have observed them.
	if got := metricSum(m, `wm_http_requests_total{`); got < 3 {
		t.Fatalf("wm_http_requests_total sums to %v, want >= 3", got)
	}
	if got := metricSum(m, `wm_http_request_duration_seconds_count{`); got < 3 {
		t.Fatalf("duration histogram count %v, want >= 3", got)
	}
	if _, ok := m["wm_http_in_flight_requests"]; !ok {
		t.Fatal("wm_http_in_flight_requests missing")
	}
	if got := metricSum(m, `wm_http_response_bytes_total{`); got <= 0 {
		t.Fatalf("wm_http_response_bytes_total sums to %v, want > 0", got)
	}

	// Jobs layer: one verify_batch job ran to done, its tuples counted.
	if got := m[`wm_jobs_total{kind="verify_batch",state="done"}`]; got != 1 {
		t.Fatalf(`wm_jobs_total{verify_batch,done} = %v, want 1`, got)
	}
	if got := m["wm_jobs_tuples_scanned_total"]; got <= 0 {
		t.Fatalf("wm_jobs_tuples_scanned_total = %v, want > 0", got)
	}
	if got := m["wm_jobs_queue_wait_seconds_count"]; got < 1 {
		t.Fatalf("queue wait histogram count %v, want >= 1", got)
	}
	if got := m["wm_jobs_workers"]; got <= 0 {
		t.Fatalf("wm_jobs_workers = %v, want > 0", got)
	}

	// Scan hot path: process-wide, so >= what this test scanned.
	if got := m["wm_scan_tuples_total"]; got <= 0 {
		t.Fatalf("wm_scan_tuples_total = %v, want > 0", got)
	}
	if got := m["wm_scan_blocks_total"]; got <= 0 {
		t.Fatalf("wm_scan_blocks_total = %v, want > 0", got)
	}
	if got := metricSum(m, `wm_keyhash_kernel_calls_total{`); got <= 0 {
		t.Fatalf("wm_keyhash_kernel_calls_total sums to %v, want > 0", got)
	}

	// Scanner cache and process vitals.
	if got := m["wm_scanner_cache_entries"]; got <= 0 {
		t.Fatalf("wm_scanner_cache_entries = %v, want > 0", got)
	}
	if got := m["wm_process_goroutines"]; got <= 0 {
		t.Fatalf("wm_process_goroutines = %v, want > 0", got)
	}
	if _, ok := m["wm_uptime_seconds"]; !ok {
		t.Fatal("wm_uptime_seconds missing")
	}
}

// TestConcurrentScrapesDuringJob hammers /metrics from several goroutines
// while a batch-verify job is scanning — the lock-ordering proof for the
// sampled collectors, meaningful under -race (CI runs it so).
func TestConcurrentScrapesDuringJob(t *testing.T) {
	ts, _ := newTestServerWithClose(t, Config{Workers: 2})
	csv, domain := testCSV(t, 12000)
	owner, marked := watermarkFixture(t, ts, "scrape-owner", csv, domain)

	job := submitBatchJob(t, ts.URL, api.BatchVerifyRequest{
		Records: []string{owner}, Schema: testSchemaSpec, Data: marked,
	}, nil)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/metrics status %d mid-job", resp.StatusCode)
					return
				}
			}
		}()
	}
	final := waitJobDone(t, ts.URL, job.ID)
	close(done)
	wg.Wait()
	if final.State != api.JobDone {
		t.Fatalf("job finished %s: %+v", final.State, final.Error)
	}
	m := scrapeMetrics(t, ts.URL)
	if got := m["wm_jobs_tuples_scanned_total"]; got < 12000 {
		t.Fatalf("wm_jobs_tuples_scanned_total = %v, want >= 12000", got)
	}
}

// TestJobsListIncludesProgress pins the satellite fix: list items carry
// the progress field (previously dropped by omitempty at zero) and agree
// with the single-resource GET.
func TestJobsListIncludesProgress(t *testing.T) {
	ts, _ := newTestServerWithClose(t, Config{Workers: 2})
	csv, domain := testCSV(t, 4000)
	owner, marked := watermarkFixture(t, ts, "progress-owner", csv, domain)

	job := submitBatchJob(t, ts.URL, api.BatchVerifyRequest{
		Records: []string{owner}, Schema: testSchemaSpec, Data: marked,
	}, nil)
	final := waitJobDone(t, ts.URL, job.ID)
	if final.State != api.JobDone || final.Progress <= 0 {
		t.Fatalf("job %s: state %s progress %d", job.ID, final.State, final.Progress)
	}

	resp, err := http.Get(ts.URL + "/v2/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw struct {
		Jobs []map[string]json.RawMessage `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if len(raw.Jobs) != 1 {
		t.Fatalf("listed %d jobs, want 1", len(raw.Jobs))
	}
	progRaw, ok := raw.Jobs[0]["progress"]
	if !ok {
		t.Fatalf("list item omits progress: %v", raw.Jobs[0])
	}
	var prog int64
	if err := json.Unmarshal(progRaw, &prog); err != nil {
		t.Fatal(err)
	}
	if prog != final.Progress {
		t.Fatalf("list progress %d != GET progress %d", prog, final.Progress)
	}
}

// TestRequestIDEchoAndFormat: every response carries X-Request-ID — the
// caller's when supplied, a generated 16-hex-char one otherwise.
func TestRequestIDEchoAndFormat(t *testing.T) {
	ts, _ := newTestServerWithClose(t, Config{Workers: 1})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	id := resp.Header.Get(obs.RequestIDHeader)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("generated request id %q, want 16 hex chars", id)
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "deadbeef00c0ffee")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "deadbeef00c0ffee" {
		t.Fatalf("inbound request id not honoured: got %q", got)
	}
}

// TestRequestIDPropagatesToWorkers is the correlation contract across
// the cluster hop: the ID on the submitting API call must arrive in the
// X-Request-ID header of every /v2/internal/scan the coordinator fans
// out for that job.
func TestRequestIDPropagatesToWorkers(t *testing.T) {
	srv, ts := newClusterCoordinator(t, 700)
	csv, domain := testCSV(t, 3000)
	owner, marked := watermarkFixture(t, ts, "reqid-owner", csv, domain)

	var mu sync.Mutex
	var seen []string
	newClusterWorker(t, srv, "w0", 2, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/v2/internal/scan") {
				mu.Lock()
				seen = append(seen, r.Header.Get(obs.RequestIDHeader))
				mu.Unlock()
			}
			next.ServeHTTP(w, r)
		})
	})

	const reqID = "feedface12345678"
	job := submitBatchJob(t, ts.URL, api.BatchVerifyRequest{
		Records: []string{owner}, Schema: testSchemaSpec, Data: marked,
	}, http.Header{obs.RequestIDHeader: []string{reqID}})
	final := waitJobDone(t, ts.URL, job.ID)
	if final.State != api.JobDone {
		t.Fatalf("job finished %s: %+v", final.State, final.Error)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("no shard scans reached the worker")
	}
	for i, got := range seen {
		if got != reqID {
			t.Fatalf("shard call %d carried request id %q, want %q", i, got, reqID)
		}
	}

	// The cluster families must have counted the fan-out.
	m := scrapeMetrics(t, ts.URL)
	if got := metricSum(m, `wm_cluster_shards_dispatched_total{`); got < float64(len(seen)) {
		t.Fatalf("wm_cluster_shards_dispatched_total sums to %v, want >= %d", got, len(seen))
	}
	if got := m["wm_cluster_workers_live"]; got != 1 {
		t.Fatalf("wm_cluster_workers_live = %v, want 1", got)
	}
	if got := metricSum(m, `wm_cluster_shard_duration_seconds_count{`); got < float64(len(seen)) {
		t.Fatalf("shard duration histogram count %v, want >= %d", got, len(seen))
	}
}

// TestHealthzHashKernel pins the kernel a server reports: unpinned,
// /healthz and wm_keyhash_selected_kernel name the KernelAuto rule's
// pick; with a -kernel pin they name the pin and /healthz says pinned.
func TestHealthzHashKernel(t *testing.T) {
	for _, tc := range []struct {
		pin    keyhash.KernelKind
		want   keyhash.KernelKind
		pinned bool
	}{
		{keyhash.KernelAuto, keyhash.AutoKind(), false},
		{keyhash.KernelPortable, keyhash.KernelPortable, true},
	} {
		ts, _ := newTestServerWithClose(t, Config{HashKernel: tc.pin})
		var h struct {
			HashKernel map[string]any `json:"hash_kernel"`
		}
		if s := getJSON(t, ts.URL+"/healthz", &h); s != http.StatusOK {
			t.Fatalf("healthz status %d", s)
		}
		want := map[string]any{"selected": string(tc.want), "pinned": tc.pinned}
		if !reflect.DeepEqual(h.HashKernel, want) {
			t.Fatalf("pin %q: hash_kernel = %v, want %v", tc.pin, h.HashKernel, want)
		}
		m := scrapeMetrics(t, ts.URL)
		series := `wm_keyhash_selected_kernel{kernel="` + string(tc.want) + `"}`
		if m[series] != 1 || metricSum(m, "wm_keyhash_selected_kernel{") != 1 {
			t.Fatalf("pin %q: want only %s = 1 in %v", tc.pin, series, m)
		}
	}
}
