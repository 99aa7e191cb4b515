package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/pipeline"
	"repro/internal/relation"
)

// ---- fixtures ----

// auditFixture is a watermarked corpus plus a certificate catalog — the
// inputs every distributed-vs-local equivalence test shares.
type auditFixture struct {
	rel     *relation.Relation
	csv     string // rel serialized by relation.WriteCSV
	schema  *relation.Schema
	spec    string
	records []*core.Record
}

func newAuditFixture(t testing.TB, rows, certs int) *auditFixture {
	t.Helper()
	r, _, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: rows, CatalogSize: 120, ZipfS: 1.0, Seed: "cluster-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &auditFixture{rel: r, schema: r.Schema(), spec: relation.SchemaSpec(r.Schema())}
	for i := 0; i < certs; i++ {
		rec, _, err := core.Watermark(r, core.Spec{
			Secret:    fmt.Sprintf("owner-%d", i),
			Attribute: "Item_Nbr",
			WM:        "10110011",
			E:         4,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.records = append(f.records, rec)
	}
	// Serialized after watermarking: Watermark marks r in place.
	var csv strings.Builder
	if err := relation.WriteCSV(&csv, r); err != nil {
		t.Fatal(err)
	}
	f.csv = csv.String()
	return f
}

// rows opens a fresh block-reader source over the fixture's CSV — the
// kind of source every server ingress hands ScanShards.
func (f *auditFixture) rows() relation.RawShardSource {
	src, err := relation.NewCSVBlockReader(strings.NewReader(f.csv), f.schema)
	if err != nil {
		panic(err) // WriteCSV output always has a parseable header
	}
	return src
}

// localTallies is the single-node reference: one pipeline.ScanMany pass.
func (f *auditFixture) localTallies(t *testing.T, prep *core.BatchPrep) []*mark.Tally {
	t.Helper()
	tallies, err := pipeline.ScanMany(context.Background(), f.rows(), prep.Scanners(), pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return tallies
}

// testWorker is an in-process worker node: the real ExecuteShard behind
// the real wire shapes, with fault-injection hooks.
type testWorker struct {
	ts *httptest.Server
	// served counts successfully scanned shards.
	served atomic.Int64
	// failWith, when non-nil, decides per-request whether to fail and
	// how: return an error to send it as HTTP 400, or panic with
	// http.ErrAbortHandler inside to kill the connection.
	failWith func(req api.ShardScanRequest) error
	// delay, when non-nil, sleeps before scanning (for forcing
	// out-of-order shard completion).
	delay func(req api.ShardScanRequest)
	// dropLastRow makes the worker scan every shard without its last
	// row and reply with the short, otherwise well-formed tally.
	dropLastRow bool
	// sets decodes the frames' certificate arrays, as a server does.
	sets *RecordSetCache
	// maxConcurrent observes the capacity ceiling the coordinator honors.
	inflight      atomic.Int64
	maxConcurrent atomic.Int64
}

func startTestWorker(t *testing.T) *testWorker {
	t.Helper()
	w := &testWorker{sets: NewRecordSetCache()}
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v2/internal/scan" {
			http.NotFound(rw, r)
			return
		}
		cur := w.inflight.Add(1)
		defer w.inflight.Add(-1)
		for {
			max := w.maxConcurrent.Load()
			if cur <= max || w.maxConcurrent.CompareAndSwap(max, cur) {
				break
			}
		}
		// Decode through the real framing and record-set cache; the rows
		// are buffered into req.Data so the hooks can inspect the payload.
		req, records, rows, err := ReadShardRequest(r.Body, 1<<30)
		if err == nil {
			req.Records, _, err = w.sets.Records(records)
		}
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		data, err := io.ReadAll(rows)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		req.Data = string(data)
		if w.dropLastRow {
			req.Data = dropLastLine(req.Data)
		}
		if w.failWith != nil {
			if err := w.failWith(req); err != nil {
				data, _ := json.Marshal(api.Errorf(api.CodeInternal, "%v", err))
				rw.Header().Set("Content-Type", "application/json")
				rw.WriteHeader(http.StatusInternalServerError)
				rw.Write(data)
				return
			}
		}
		if w.delay != nil {
			w.delay(req)
		}
		resp, err := ExecuteShard(r.Context(), req, core.BatchOptions{})
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		body, err := resp.AppendBinary(nil)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		w.served.Add(1)
		rw.Header().Set("Content-Type", api.ContentTypeTally)
		rw.Write(body)
	}))
	t.Cleanup(w.ts.Close)
	return w
}

// dropLastLine removes the final newline-terminated line of data.
func dropLastLine(data string) string {
	trimmed := strings.TrimSuffix(data, "\n")
	return trimmed[:strings.LastIndexByte(trimmed, '\n')+1]
}

func (w *testWorker) register(c *Coordinator, id string, capacity int) {
	c.Register(api.WorkerRegistration{ID: id, URL: w.ts.URL, Capacity: capacity})
}

// ---- membership ----

func TestCoordinatorMembershipLease(t *testing.T) {
	clock := time.Unix(1000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	advance := func(d time.Duration) { mu.Lock(); clock = clock.Add(d); mu.Unlock() }

	c := NewCoordinator(Config{Heartbeat: time.Second}, withClock(now))
	ack := c.Register(api.WorkerRegistration{URL: "http://w1:1"})
	if ack.HeartbeatSeconds != 1 || ack.TTLSeconds != 3 {
		t.Fatalf("ack = %+v, want heartbeat 1s, ttl 3s", ack)
	}
	if got := c.LiveWorkers(); got != 1 {
		t.Fatalf("LiveWorkers = %d, want 1", got)
	}
	st := c.Status()
	if st.Role != api.RoleCoordinator || len(st.Workers) != 1 || !st.Workers[0].Live {
		t.Fatalf("status = %+v", st)
	}
	if st.Workers[0].ID != "http://w1:1" {
		t.Fatalf("empty ID should default to URL, got %q", st.Workers[0].ID)
	}
	if st.Workers[0].Capacity != 1 {
		t.Fatalf("capacity should default to 1, got %d", st.Workers[0].Capacity)
	}

	// Lease expires past the TTL; the entry stays visible (with its age)
	// but stops counting as live and receives no shards.
	advance(4 * time.Second)
	if got := c.LiveWorkers(); got != 0 {
		t.Fatalf("LiveWorkers after expiry = %d, want 0", got)
	}
	st = c.Status()
	if st.Workers[0].Live || st.Workers[0].LastHeartbeatAgeSeconds != 4 {
		t.Fatalf("expired worker status = %+v", st.Workers[0])
	}
	if m := c.acquire(nil); m != nil {
		t.Fatalf("acquire handed out an expired worker: %+v", m)
	}

	// A heartbeat revives it.
	c.Register(api.WorkerRegistration{URL: "http://w1:1", Capacity: 2})
	if got := c.LiveWorkers(); got != 1 {
		t.Fatalf("LiveWorkers after revival = %d, want 1", got)
	}

	// Long-dead members are pruned on the next registration.
	advance(31 * time.Second) // past 10×TTL
	c.Register(api.WorkerRegistration{ID: "w2", URL: "http://w2:1"})
	st = c.Status()
	if len(st.Workers) != 1 || st.Workers[0].ID != "w2" {
		t.Fatalf("stale member not pruned: %+v", st.Workers)
	}
}

// TestWorkerStatusCarriesKernel pins the /healthz surface: the hash
// backend a worker advertises at registration shows up on its status row.
func TestWorkerStatusCarriesKernel(t *testing.T) {
	c := NewCoordinator(Config{})
	c.Register(api.WorkerRegistration{ID: "w", URL: "http://w", Kernel: "multibuffer4"})
	st := c.Status()
	if len(st.Workers) != 1 {
		t.Fatalf("want 1 worker, got %d", len(st.Workers))
	}
	if w := st.Workers[0]; w.Kernel != "multibuffer4" {
		t.Fatalf("status row lost the kernel: %+v", w)
	}
}

func TestCoordinatorAcquirePrefersUntriedLeastLoaded(t *testing.T) {
	c := NewCoordinator(Config{})
	c.Register(api.WorkerRegistration{ID: "a", URL: "http://a", Capacity: 2})
	c.Register(api.WorkerRegistration{ID: "b", URL: "http://b", Capacity: 1})

	m1 := c.acquire(nil)
	if m1 == nil || m1.id != "a" {
		t.Fatalf("first acquire = %+v, want least-loaded tiebreak to a", m1)
	}
	// a now has 1 active of 2; b has 0 of 1 — b is least loaded.
	m2 := c.acquire(nil)
	if m2 == nil || m2.id != "b" {
		t.Fatalf("second acquire = %+v, want b", m2)
	}
	// Avoiding b leaves a's second slot.
	m3 := c.acquire(map[string]bool{"b": true})
	if m3 == nil || m3.id != "a" {
		t.Fatalf("third acquire = %+v, want a", m3)
	}
	// Everything full.
	if m := c.acquire(nil); m != nil {
		t.Fatalf("acquire over capacity = %+v, want nil", m)
	}
	// b frees a slot, but a (untried, merely busy) still exists: a shard
	// that failed on b WAITS for a rather than retrying where it failed.
	c.release(m2, false)
	if m := c.acquire(map[string]bool{"b": true}); m != nil {
		t.Fatalf("acquire = %+v, want nil (wait for the untried worker)", m)
	}
	// Once b is the sole survivor, the avoid set yields — retrying on the
	// last live worker beats failing the audit.
	c.release(m1, true)
	c.release(m3, true) // a now unreachable with no active shards
	m4 := c.acquire(map[string]bool{"b": true})
	if m4 == nil || m4.id != "b" {
		t.Fatalf("sole-survivor acquire = %+v, want b despite avoid", m4)
	}
}

// ---- distributed scan equivalence ----

// TestScanShardsMatchesLocalScan is the core equivalence contract: a
// coordinator with N ∈ {1, 2, 4} workers produces per-certificate tallies
// DeepEqual to one local pipeline.ScanMany pass — and tally equality
// makes every downstream report equal for BOTH vote aggregations, since
// Scanner.Report is a pure function of (tally, aggregation). The explicit
// both-aggregation report check runs at the end anyway.
func TestScanShardsMatchesLocalScan(t *testing.T) {
	f := newAuditFixture(t, 4000, 3)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	want := f.localTallies(t, prep)

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			c := NewCoordinator(Config{ShardRows: 256})
			for i := 0; i < n; i++ {
				startTestWorker(t).register(c, fmt.Sprintf("w%d", i), 2)
			}
			got, err := c.ScanShards(context.Background(), f.rows(), prep.Scanners(), ScanJob{
				Records: prep.Records(), Schema: f.spec,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cluster tallies diverged from local scan")
			}
			assertReportsEqualBothAggregations(t, f, got, want)
		})
	}
}

// assertReportsEqualBothAggregations re-reports cluster and local tallies
// under MajorityVote and LastWriteWins and asserts bit-identical results.
// Report reads only bandwidth, wm length and the aggregation policy from
// its scanner, so a reporting-only scanner (throwaway keys) is enough.
func assertReportsEqualBothAggregations(t *testing.T, f *auditFixture, got, want []*mark.Tally) {
	t.Helper()
	for _, agg := range []mark.VoteAggregation{mark.MajorityVote, mark.LastWriteWins} {
		for j, rec := range f.records {
			dom, err := relation.NewDomain(rec.Domain)
			if err != nil {
				t.Fatal(err)
			}
			reporter, err := mark.NewStreamScanner(f.schema, len(rec.WM), mark.Options{
				Attr: rec.Attribute, K1: keyhash.NewKey("report-k1"), K2: keyhash.NewKey("report-k2"),
				E: rec.E, Domain: dom, BandwidthOverride: rec.Bandwidth, Aggregation: agg,
			})
			if err != nil {
				t.Fatal(err)
			}
			gotRep, gotErr := reporter.Report(got[j])
			wantRep, wantErr := reporter.Report(want[j])
			if !errors.Is(gotErr, wantErr) && (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%v cert %d: report errors diverged: %v vs %v", agg, j, gotErr, wantErr)
			}
			if !reflect.DeepEqual(gotRep, wantRep) {
				t.Fatalf("%v cert %d: cluster report diverged from local", agg, j)
			}
		}
	}
}

// TestScanShardsOutOfOrderCompletion forces shard 0 to finish LAST (it
// sleeps while every other shard races ahead on the second worker) and
// asserts the merge still happens in row order — the LastWriteWins column
// would corrupt under completion-order merging.
func TestScanShardsOutOfOrderCompletion(t *testing.T) {
	f := newAuditFixture(t, 2000, 2)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	want := f.localTallies(t, prep)

	c := NewCoordinator(Config{ShardRows: 128})
	slow := startTestWorker(t)
	slow.delay = func(req api.ShardScanRequest) {
		if req.Shard == 0 {
			time.Sleep(150 * time.Millisecond)
		}
	}
	slow.register(c, "slow", 1)
	startTestWorker(t).register(c, "fast", 4)

	got, err := c.ScanShards(context.Background(), f.rows(), prep.Scanners(), ScanJob{
		Records: prep.Records(), Schema: f.spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("out-of-order completion corrupted the merged tallies")
	}
	assertReportsEqualBothAggregations(t, f, got, want)
}

// TestScanShardsRetriesOnWorkerDeath kills one worker's connections
// mid-audit (every request dies at the transport, as a killed process
// would) and asserts the audit still completes bit-identically on the
// survivor, with the dead worker marked unreachable.
func TestScanShardsRetriesOnWorkerDeath(t *testing.T) {
	f := newAuditFixture(t, 3000, 2)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	want := f.localTallies(t, prep)

	c := NewCoordinator(Config{ShardRows: 256})
	healthy := startTestWorker(t)
	healthy.register(c, "healthy", 2)

	dying := startTestWorker(t)
	var dyingHits atomic.Int64
	dying.failWith = func(api.ShardScanRequest) error {
		dyingHits.Add(1)
		panic(http.ErrAbortHandler) // kill the TCP connection mid-request
	}
	dying.register(c, "dying", 2)

	got, err := c.ScanShards(context.Background(), f.rows(), prep.Scanners(), ScanJob{
		Records: prep.Records(), Schema: f.spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("worker death changed the merged tallies")
	}
	if dyingHits.Load() == 0 {
		t.Fatal("test never exercised the dying worker")
	}
	for _, w := range c.Status().Workers {
		if w.ID == "dying" && w.Live {
			t.Fatal("transport-failed worker still marked live")
		}
	}
}

// TestScanShardsRetriesOnWorkerError routes shards away from a worker
// that answers 500 (alive but failing): the shard is retried elsewhere,
// the worker keeps its lease.
func TestScanShardsRetriesOnWorkerError(t *testing.T) {
	f := newAuditFixture(t, 1500, 1)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	want := f.localTallies(t, prep)

	c := NewCoordinator(Config{ShardRows: 200})
	startTestWorker(t).register(c, "good", 1)
	bad := startTestWorker(t)
	bad.failWith = func(api.ShardScanRequest) error { return errors.New("disk on fire") }
	bad.register(c, "bad", 1)

	got, err := c.ScanShards(context.Background(), f.rows(), prep.Scanners(), ScanJob{
		Records: prep.Records(), Schema: f.spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("erroring worker changed the merged tallies")
	}
	for _, w := range c.Status().Workers {
		if w.ID == "bad" && !w.Live {
			t.Fatal("an HTTP-level error should not cost the worker its lease")
		}
	}
}

// TestScanShardsRejectsShortReplies pins the row-count check on shard
// replies: a worker that scans all but the last row of every shard
// answers with well-formed tallies, which must never merge. Beside a
// healthy worker the short replies cost retries and the report stays
// bit-identical; with every worker short the scan fails with a cluster
// error instead of returning a report with holes.
func TestScanShardsRejectsShortReplies(t *testing.T) {
	f := newAuditFixture(t, 1500, 2)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	want := f.localTallies(t, prep)

	t.Run("one short worker", func(t *testing.T) {
		c := NewCoordinator(Config{ShardRows: 200})
		startTestWorker(t).register(c, "good", 1)
		short := startTestWorker(t)
		short.dropLastRow = true
		short.register(c, "short", 1)

		got, err := c.ScanShards(context.Background(), f.rows(), prep.Scanners(), ScanJob{
			Records: prep.Records(), Schema: f.spec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("a short shard reply merged into the tallies")
		}
		if short.served.Load() == 0 {
			t.Fatal("test never exercised the short worker")
		}
		for _, w := range c.Status().Workers {
			if !w.Live {
				t.Fatalf("worker %s lost its lease over a short reply", w.ID)
			}
		}
	})

	t.Run("every worker short", func(t *testing.T) {
		c := NewCoordinator(Config{ShardRows: 200})
		for i := 0; i < 2; i++ {
			w := startTestWorker(t)
			w.dropLastRow = true
			w.register(c, fmt.Sprintf("short%d", i), 1)
		}
		_, err := c.ScanShards(context.Background(), f.rows(), prep.Scanners(), ScanJob{
			Records: prep.Records(), Schema: f.spec,
		})
		if !errors.Is(err, errInvalidShardResponse) || !strings.HasPrefix(err.Error(), "cluster: ") {
			t.Fatalf("err = %v, want a cluster: error wrapping the invalid shard response", err)
		}
		if !strings.Contains(err.Error(), "scanned 199 rows, want 200") {
			t.Fatalf("err = %v, want the row-count mismatch named", err)
		}
	})
}

// TestScanShardsProgressAndCapacity checks the aggregate progress ticks
// (every suspect row exactly once, regardless of retries) and that a
// capacity-1 worker never holds two shards.
func TestScanShardsProgressAndCapacity(t *testing.T) {
	f := newAuditFixture(t, 1000, 1)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})

	c := NewCoordinator(Config{ShardRows: 100})
	w := startTestWorker(t)
	w.delay = func(api.ShardScanRequest) { time.Sleep(2 * time.Millisecond) }
	w.register(c, "solo", 1)

	var progress atomic.Int64
	_, err := c.ScanShards(context.Background(), f.rows(), prep.Scanners(), ScanJob{
		Records: prep.Records(), Schema: f.spec,
		Progress: func(n int) { progress.Add(int64(n)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := progress.Load(); got != int64(f.rel.Len()) {
		t.Fatalf("progress = %d, want %d", got, f.rel.Len())
	}
	if max := w.maxConcurrent.Load(); max > 1 {
		t.Fatalf("capacity-1 worker held %d concurrent shards", max)
	}
}

func TestScanShardsNoWorkers(t *testing.T) {
	f := newAuditFixture(t, 200, 1)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	c := NewCoordinator(Config{ShardRows: 100})
	_, err := c.ScanShards(context.Background(), f.rows(), prep.Scanners(), ScanJob{
		Records: prep.Records(), Schema: f.spec,
	})
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

func TestScanShardsExhaustsRetries(t *testing.T) {
	f := newAuditFixture(t, 500, 1)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	c := NewCoordinator(Config{ShardRows: 100, MaxShardAttempts: 2})
	bad := startTestWorker(t)
	bad.failWith = func(api.ShardScanRequest) error { return errors.New("always failing") }
	bad.register(c, "bad", 2)

	_, err := c.ScanShards(context.Background(), f.rows(), prep.Scanners(), ScanJob{
		Records: prep.Records(), Schema: f.spec,
	})
	if err == nil || !strings.Contains(err.Error(), "failed on 2 workers") {
		t.Fatalf("err = %v, want retry exhaustion", err)
	}
}

func TestScanShardsCancellation(t *testing.T) {
	f := newAuditFixture(t, 2000, 1)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	c := NewCoordinator(Config{ShardRows: 50})
	ctx, cancel := context.WithCancel(context.Background())
	w := startTestWorker(t)
	w.delay = func(req api.ShardScanRequest) {
		if req.Shard == 2 {
			cancel() // cancel mid-audit, with shards still pending
		}
		time.Sleep(5 * time.Millisecond)
	}
	w.register(c, "solo", 1)

	_, err := c.ScanShards(ctx, f.rows(), prep.Scanners(), ScanJob{
		Records: prep.Records(), Schema: f.spec,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExecuteShardMatchesVerifyBatch pins the worker entry point itself:
// scanning a whole corpus as one shard equals core.VerifyBatch's internal
// scan, surfaced through identical reports.
func TestExecuteShardMatchesVerifyBatch(t *testing.T) {
	f := newAuditFixture(t, 1200, 2)
	var data strings.Builder
	if err := relation.WriteCSV(&data, f.rel); err != nil {
		t.Fatal(err)
	}
	resp, err := ExecuteShard(context.Background(), api.ShardScanRequest{
		Schema: f.spec, Data: data.String(), Records: f.records,
	}, core.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows != f.rel.Len() {
		t.Fatalf("rows = %d, want %d", resp.Rows, f.rel.Len())
	}

	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	tallies := make([]*mark.Tally, len(resp.Tallies))
	for j, w := range resp.Tallies {
		if tallies[j], err = w.Tally(); err != nil {
			t.Fatal(err)
		}
	}
	gotReports := prep.Reports(tallies)

	wantReports, err := core.VerifyBatch(context.Background(), f.records, f.rows(), core.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotReports, wantReports) {
		t.Fatal("ExecuteShard reports diverged from VerifyBatch")
	}
}

// ---- agent ----

func TestAgentHeartbeats(t *testing.T) {
	coord := NewCoordinator(Config{Heartbeat: 20 * time.Millisecond})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v2/internal/workers" {
			http.NotFound(w, r)
			return
		}
		var reg api.WorkerRegistration
		if err := json.NewDecoder(r.Body).Decode(&reg); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(coord.Register(reg))
	}))
	defer ts.Close()

	beats := make(chan error, 64)
	agent := StartAgent(ts.URL, api.WorkerRegistration{ID: "w1", URL: "http://me:1", Capacity: 3},
		withBeatHook(func(err error) { beats <- err }))
	defer agent.Stop()

	// First beat registers immediately; later beats use the coordinator's
	// advertised 20ms interval rather than the 2s default.
	deadline := time.After(2 * time.Second)
	for i := 0; i < 3; i++ {
		select {
		case err := <-beats:
			if err != nil {
				t.Fatalf("beat %d failed: %v", i, err)
			}
		case <-deadline:
			t.Fatalf("saw %d beats before deadline — interval not adopted from ack?", i)
		}
	}
	if got := coord.LiveWorkers(); got != 1 {
		t.Fatalf("LiveWorkers = %d, want 1", got)
	}
	st := coord.Status()
	if st.Workers[0].ID != "w1" || st.Workers[0].Capacity != 3 {
		t.Fatalf("registered worker = %+v", st.Workers[0])
	}

	agent.Stop()
}

// countingSource wraps a RawShardSource and counts skim calls and the
// rows they hand out, so a test can assert the reader goroutine has
// truly let go of the source and measure how far ahead it ran.
type countingSource struct {
	relation.RawShardSource
	calls, rows atomic.Int64
}

func (c *countingSource) SkimRecords(dst []byte, maxRows int) ([]byte, int, error) {
	c.calls.Add(1)
	dst, n, err := c.RawShardSource.SkimRecords(dst, maxRows)
	c.rows.Add(int64(n))
	return dst, n, err
}

// TestScanShardsReleasesSourceOnFailure pins the reader-lifetime
// contract: once ScanShards returns — even on a mid-corpus fatal error —
// the source stream is never read again. (The server hands ScanShards a
// RowReader over an HTTP request body; net/http closes that body the
// moment the handler returns, so a straggling reader would race it.)
func TestScanShardsReleasesSourceOnFailure(t *testing.T) {
	f := newAuditFixture(t, 5000, 1)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	c := NewCoordinator(Config{ShardRows: 100, MaxShardAttempts: 1, MaxBufferedShards: 2})
	bad := startTestWorker(t)
	bad.failWith = func(api.ShardScanRequest) error { return errors.New("nope") }
	bad.register(c, "bad", 1)

	src := &countingSource{RawShardSource: f.rows()}
	_, err := c.ScanShards(context.Background(), src, prep.Scanners(), ScanJob{
		Records: prep.Records(), Schema: f.spec,
	})
	if err == nil {
		t.Fatal("scan against an always-failing worker succeeded")
	}
	after := src.calls.Load()
	time.Sleep(50 * time.Millisecond)
	if got := src.calls.Load(); got != after {
		t.Fatalf("source read %d more times after ScanShards returned", got-after)
	}
	if rows := src.rows.Load(); rows >= 5000 {
		t.Fatalf("reader drained the whole corpus (%d rows) despite the early failure", rows)
	}
}

// TestScanShardsBackpressure runs a corpus of many small shards through
// a deliberately slow capacity-1 worker under a tight buffer bound: the
// reader must never run more than MaxBufferedShards + in-flight + 1
// shards ahead of the scans, and the result must still be bit-identical.
func TestScanShardsBackpressure(t *testing.T) {
	f := newAuditFixture(t, 3000, 1)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	want := f.localTallies(t, prep)

	const maxBuffered = 2
	c := NewCoordinator(Config{ShardRows: 100, MaxBufferedShards: maxBuffered})
	w := startTestWorker(t)
	w.delay = func(api.ShardScanRequest) { time.Sleep(time.Millisecond) }
	w.register(c, "slow", 1)

	src := &countingSource{RawShardSource: f.rows()}
	var maxLead int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
			}
			lead := src.rows.Load()/100 - w.served.Load()
			if lead > atomic.LoadInt64(&maxLead) {
				atomic.StoreInt64(&maxLead, lead)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	got, err := c.ScanShards(context.Background(), src, prep.Scanners(), ScanJob{
		Records: prep.Records(), Schema: f.spec,
	})
	done <- struct{}{}
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("backpressure changed the merged tallies")
	}
	// buffered (2) + in-flight (1) + the shard being accumulated (1),
	// plus one shard of sampling slack.
	if lead := atomic.LoadInt64(&maxLead); lead > maxBuffered+3 {
		t.Fatalf("reader ran %d shards ahead of the scans (bound %d)", lead, maxBuffered)
	}
}

// TestAgentReportsFailures pins the no-silent-failure contract: an agent
// pointed at something that is not a coordinator keeps LastError set,
// and it clears (with the joined transition observable) once heartbeats
// succeed.
func TestAgentReportsFailures(t *testing.T) {
	notACoordinator := httptest.NewServer(http.NotFoundHandler())
	defer notACoordinator.Close()

	beats := make(chan error, 64)
	agent := StartAgent(notACoordinator.URL, api.WorkerRegistration{ID: "w", URL: "http://me:1"},
		withBeatHook(func(err error) { beats <- err }))
	defer agent.Stop()

	select {
	case err := <-beats:
		if err == nil {
			t.Fatal("registration against a 404 endpoint reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no beat observed")
	}
	if agent.LastError() == nil {
		t.Fatal("LastError nil after a failed registration")
	}
}

// TestScanShardsMalformedResponseKeepsLease pins the classification of a
// worker that ANSWERS with garbage (version skew, corrupt tally): its
// shards retry elsewhere, but it is alive and keeps its lease — only
// transport failures empty the membership table.
func TestScanShardsMalformedResponseKeepsLease(t *testing.T) {
	f := newAuditFixture(t, 1000, 1)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	want := f.localTallies(t, prep)

	c := NewCoordinator(Config{ShardRows: 200})
	startTestWorker(t).register(c, "good", 1)
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// 200 with a wrong-shaped body: zero tallies for one certificate.
		body, err := (&api.ShardScanResponse{}).AppendBinary(nil)
		if err != nil {
			panic(err)
		}
		w.Header().Set("Content-Type", api.ContentTypeTally)
		w.Write(body) //nolint:errcheck
	}))
	t.Cleanup(garbage.Close)
	c.Register(api.WorkerRegistration{ID: "skewed", URL: garbage.URL, Capacity: 1})

	got, err := c.ScanShards(context.Background(), f.rows(), prep.Scanners(), ScanJob{
		Records: prep.Records(), Schema: f.spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("malformed responses corrupted the merged tallies")
	}
	for _, w := range c.Status().Workers {
		if w.ID == "skewed" && !w.Live {
			t.Fatal("a worker that answers (with garbage) lost its lease as if unreachable")
		}
	}
}

// TestScanShardsUndecodableReplyKeepsLease: a worker whose 2xx body
// arrives whole but does not decode — not binary at all, the wrong
// media type, trailing bytes, or longer than any honest reply — answered,
// so it keeps its lease while its shards retry elsewhere. A body that
// breaks off mid-read is a transport failure and marks the worker
// unreachable.
func TestScanShardsUndecodableReplyKeepsLease(t *testing.T) {
	f := newAuditFixture(t, 1000, 1)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	want := f.localTallies(t, prep)
	valid, err := (&api.ShardScanResponse{}).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name        string
		contentType string
		body        []byte
		live        bool
	}{
		{"not json", "text/plain", []byte("not json"), true},
		{"json reply", api.ContentTypeJSON, []byte(`{"shard":0,"rows":200,"tallies":[]}`), true},
		{"trailing bytes", api.ContentTypeTally, append(bytes.Clone(valid), 0), true},
		{"oversized", api.ContentTypeTally, make([]byte, 1<<20), true},
		{"cut off", api.ContentTypeTally, nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCoordinator(Config{ShardRows: 200})
			startTestWorker(t).register(c, "good", 1)
			var hit atomic.Bool
			odd := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hit.Store(true)
				w.Header().Set("Content-Type", tc.contentType)
				if tc.body == nil {
					// Promise more than is sent, then drop the connection.
					w.Header().Set("Content-Length", "100")
					w.Write([]byte("partial")) //nolint:errcheck
					w.(http.Flusher).Flush()
					panic(http.ErrAbortHandler)
				}
				w.Write(tc.body) //nolint:errcheck
			}))
			t.Cleanup(odd.Close)
			c.Register(api.WorkerRegistration{ID: "odd", URL: odd.URL, Capacity: 1})

			got, err := c.ScanShards(context.Background(), f.rows(), prep.Scanners(), ScanJob{
				Records: prep.Records(), Schema: f.spec,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("undecodable replies corrupted the merged tallies")
			}
			if !hit.Load() {
				t.Fatal("test never dispatched to the odd worker")
			}
			for _, w := range c.Status().Workers {
				if w.ID == "odd" && w.Live != tc.live {
					t.Fatalf("odd worker live = %v, want %v", w.Live, tc.live)
				}
			}
		})
	}
}
