package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
)

// stubJobServer serves GET /v2/jobs/{id} from a scripted sequence of job
// resources, recording the arrival time of every poll.
type stubJobServer struct {
	script []api.Job
	polls  atomic.Int64
	times  chan time.Time
}

func (s *stubJobServer) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(s.polls.Add(1)) - 1
		s.times <- time.Now()
		if n >= len(s.script) {
			n = len(s.script) - 1
		}
		json.NewEncoder(w).Encode(s.script[n]) //nolint:errcheck
	})
}

// TestWaitJobWithBackoffAndNotify drives WaitJobWith against a scripted
// job: every poll reaches Notify in order (progress visibly advancing),
// polling stops at the terminal state, and the inter-poll delays grow —
// the capped exponential backoff that keeps long audits from hammering
// the server.
func TestWaitJobWithBackoffAndNotify(t *testing.T) {
	running := func(progress int64) api.Job {
		return api.Job{ID: "job-x", State: api.JobRunning, Progress: progress}
	}
	stub := &stubJobServer{
		script: []api.Job{
			running(100), running(200), running(300), running(400),
			{ID: "job-x", State: api.JobDone, Progress: 500},
		},
		times: make(chan time.Time, 16),
	}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	var seen []int64
	job, err := New(ts.URL).WaitJobWith(context.Background(), "job-x", WaitOptions{
		Initial:    5 * time.Millisecond,
		Max:        40 * time.Millisecond,
		Multiplier: 2,
		Jitter:     -1,
		Notify:     func(j *api.Job) { seen = append(seen, j.Progress) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != api.JobDone || job.Progress != 500 {
		t.Fatalf("final job: %+v", job)
	}
	if got := stub.polls.Load(); got != 5 {
		t.Fatalf("polled %d times, want 5 (stop at terminal state)", got)
	}
	want := []int64{100, 200, 300, 400, 500}
	if len(seen) != len(want) {
		t.Fatalf("notify saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("notify saw %v, want %v", seen, want)
		}
	}

	// Delays between polls must grow: compare the first gap to the last.
	close(stub.times)
	var stamps []time.Time
	for ts := range stub.times {
		stamps = append(stamps, ts)
	}
	first := stamps[1].Sub(stamps[0])
	last := stamps[len(stamps)-1].Sub(stamps[len(stamps)-2])
	if last < 2*first {
		t.Fatalf("backoff did not grow: first gap %v, last gap %v", first, last)
	}
}

// TestWaitJobWithJitterStaysBelowDelay bounds the jittered sleep: with
// full-range timing slack, each gap must stay under the configured cap
// plus scheduling noise.
func TestWaitJobWithJitterStaysBelowDelay(t *testing.T) {
	stub := &stubJobServer{
		script: []api.Job{
			{ID: "j", State: api.JobRunning},
			{ID: "j", State: api.JobRunning},
			{ID: "j", State: api.JobDone},
		},
		times: make(chan time.Time, 16),
	}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	start := time.Now()
	if _, err := New(ts.URL).WaitJobWith(context.Background(), "j", WaitOptions{
		Initial:    10 * time.Millisecond,
		Max:        10 * time.Millisecond,
		Multiplier: 2,
		Jitter:     0.5,
	}); err != nil {
		t.Fatal(err)
	}
	// Two sleeps of at most 10ms each; generous envelope for CI noise.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("jittered wait took %v — jitter should only shrink delays", elapsed)
	}
}

// TestWaitJobCancelledContext confirms the polling loop honors ctx while
// sleeping.
func TestWaitJobCancelledContext(t *testing.T) {
	stub := &stubJobServer{
		script: []api.Job{{ID: "j", State: api.JobRunning}},
		times:  make(chan time.Time, 64),
	}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := New(ts.URL).WaitJobWith(ctx, "j", WaitOptions{
		Initial: time.Hour, Max: time.Hour,
	})
	if err == nil || ctx.Err() == nil {
		t.Fatalf("want ctx error, got %v", err)
	}
}

// longPollStub serves GET /v2/jobs/{id} with long-poll advertisement:
// requests without ?wait= return the current state immediately; requests
// with ?wait= park until the state flips to done or the wait elapses.
type longPollStub struct {
	mu        sync.Mutex
	state     api.JobState
	flipped   chan struct{} // closed when the job becomes terminal
	waits     []time.Duration
	plainGets atomic.Int64
}

func newLongPollStub() *longPollStub {
	return &longPollStub{state: api.JobRunning, flipped: make(chan struct{})}
}

func (s *longPollStub) finish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != api.JobDone {
		s.state = api.JobDone
		close(s.flipped)
	}
}

func (s *longPollStub) handler(t *testing.T) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if raw := r.URL.Query().Get("wait"); raw != "" {
			wait, err := time.ParseDuration(raw)
			if err != nil {
				t.Errorf("bad wait %q: %v", raw, err)
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			s.mu.Lock()
			s.waits = append(s.waits, wait)
			s.mu.Unlock()
			select {
			case <-s.flipped:
			case <-time.After(wait):
			case <-r.Context().Done():
			}
		} else {
			s.plainGets.Add(1)
		}
		s.mu.Lock()
		job := api.Job{ID: "job-lp", State: s.state}
		s.mu.Unlock()
		w.Header().Set(api.LongPollMaxHeader, (30 * time.Second).String())
		json.NewEncoder(w).Encode(job) //nolint:errcheck
	})
}

// TestWaitJobWithPrefersLongPoll asserts the advertised-long-poll path:
// the first request is a plain GET (discovery), every later one parks
// server-side with ?wait=, and the terminal state comes back the moment
// it happens — far sooner than the next backoff poll would have.
func TestWaitJobWithPrefersLongPoll(t *testing.T) {
	stub := newLongPollStub()
	ts := httptest.NewServer(stub.handler(t))
	defer ts.Close()

	go func() {
		time.Sleep(60 * time.Millisecond)
		stub.finish()
	}()
	start := time.Now()
	job, err := New(ts.URL).WaitJobWith(context.Background(), "job-lp", WaitOptions{
		// A backoff that would sleep far past the flip if long-polling
		// were ignored.
		Initial: 10 * time.Second, Max: 10 * time.Second, Jitter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if job.State != api.JobDone {
		t.Fatalf("state = %v, want done", job.State)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("took %v — long-poll not used, client slept its backoff", elapsed)
	}
	if got := stub.plainGets.Load(); got != 1 {
		t.Fatalf("plain GETs = %d, want exactly the discovery poll", got)
	}
	stub.mu.Lock()
	defer stub.mu.Unlock()
	if len(stub.waits) == 0 {
		t.Fatal("no long-poll requests arrived")
	}
	for _, wait := range stub.waits {
		if wait > 30*time.Second {
			t.Fatalf("client asked for %v, beyond the advertised cap", wait)
		}
	}
}

// TestWaitJobPlainPollingUnchanged pins the fallback: a server that never
// advertises long-polling sees only plain GETs (the pre-long-poll
// behavior, bit for bit).
func TestWaitJobPlainPollingUnchanged(t *testing.T) {
	var sawWait atomic.Bool
	var polls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("wait") != "" {
			sawWait.Store(true)
		}
		state := api.JobRunning
		if polls.Add(1) >= 3 {
			state = api.JobDone
		}
		json.NewEncoder(w).Encode(api.Job{ID: "job-p", State: state}) //nolint:errcheck
	}))
	defer ts.Close()

	job, err := New(ts.URL).WaitJob(context.Background(), "job-p", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != api.JobDone {
		t.Fatalf("state = %v, want done", job.State)
	}
	if sawWait.Load() {
		t.Fatal("client sent ?wait= to a server that never advertised long-polling")
	}
}

// TestWaitJobLongPollSurvivesClientTimeout pins the interaction with a
// caller-supplied http.Client.Timeout shorter than the backoff delay: a
// parked request that dies at the client's own deadline is retried as a
// plain poll (and parking stops), instead of failing the whole wait.
func TestWaitJobLongPollSurvivesClientTimeout(t *testing.T) {
	stub := newLongPollStub()
	ts := httptest.NewServer(stub.handler(t))
	defer ts.Close()

	go func() {
		time.Sleep(250 * time.Millisecond)
		stub.finish()
	}()
	c := New(ts.URL)
	c.hc = &http.Client{Timeout: 100 * time.Millisecond}
	job, err := c.WaitJobWith(context.Background(), "job-lp", WaitOptions{
		// Backoff delays beyond the client timeout: the long-poll request
		// is guaranteed to die at the client's deadline first, and the
		// plain polling it falls back to still finishes promptly.
		Initial: 300 * time.Millisecond, Max: 300 * time.Millisecond, Jitter: -1,
	})
	if err != nil {
		t.Fatalf("WaitJobWith failed on the client-side timeout: %v", err)
	}
	if job.State != api.JobDone {
		t.Fatalf("state = %v, want done", job.State)
	}
}
