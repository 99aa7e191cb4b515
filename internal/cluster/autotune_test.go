package cluster

// Tests for throughput-driven shard autotuning: the coordinator's
// per-worker rate model, the re-split-on-retry path, and the end-to-end
// property the feature exists for — a fast/slow worker pair receives
// unequal shard sizes while the merged report stays bit-identical to a
// single-node scan.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/relation"
)

// TestTargetShardRowsSeedsFromAdvertisedRate pins the cold-start path:
// with no completed shards, shard sizes scale from the calibrated hash
// rates workers advertise at registration, relative to the cluster mean.
func TestTargetShardRowsSeedsFromAdvertisedRate(t *testing.T) {
	c := NewCoordinator(Config{AutoShardRows: true, ShardRows: 300, MinShardRows: 1})
	c.Register(api.WorkerRegistration{ID: "w-a", URL: "http://a", HashesPerSec: 2e6})
	c.Register(api.WorkerRegistration{ID: "w-b", URL: "http://b", HashesPerSec: 1e6})

	// Both free: the peek picks w-a (tie on load, id order). Mean
	// advertised rate is 1.5e6, so w-a's seed is 300 * 2/1.5 = 400.
	if got := c.targetShardRows(); got != 400 {
		t.Fatalf("seeded shard rows for w-a = %d, want 400", got)
	}
	// Occupy w-a: the peek falls to w-b, seeded at 300 * 1/1.5 = 200.
	c.mu.Lock()
	c.members["w-a"].active = 1
	c.mu.Unlock()
	if got := c.targetShardRows(); got != 200 {
		t.Fatalf("seeded shard rows for w-b = %d, want 200", got)
	}
	// No free worker at all: fall back to the configured seed (no
	// observed rates exist yet).
	c.mu.Lock()
	c.members["w-b"].active = 1
	c.mu.Unlock()
	if got := c.targetShardRows(); got != 300 {
		t.Fatalf("shard rows with all workers busy = %d, want 300", got)
	}
}

// TestTargetShardRowsTracksObservedRate pins the steady-state path: a
// completed shard's rows/s beats any advertised seed, later shards fold
// in by EWMA, and the [min, max] clamp bounds the result.
func TestTargetShardRowsTracksObservedRate(t *testing.T) {
	c := NewCoordinator(Config{
		AutoShardRows:      true,
		TargetShardLatency: 2 * time.Second,
		MinShardRows:       100,
		MaxShardRows:       50_000,
	})
	c.Register(api.WorkerRegistration{ID: "w", URL: "http://w", HashesPerSec: 9e9})
	c.mu.Lock()
	m := c.members["w"]
	c.mu.Unlock()

	// First observation is taken whole: 5000 rows/s * 2s target = 10000.
	c.observeRate(m, 5000, time.Second)
	if got := c.targetShardRows(); got != 10_000 {
		t.Fatalf("shard rows after first observation = %d, want 10000", got)
	}
	// Second observation folds in at alpha=0.4:
	// 0.4*1000 + 0.6*5000 = 3400 rows/s -> 6800 rows.
	c.observeRate(m, 1000, time.Second)
	if got := c.targetShardRows(); got != 6800 {
		t.Fatalf("shard rows after EWMA = %d, want 6800", got)
	}
	// Clamps: a collapsed rate floors at MinShardRows, a huge one caps
	// at MaxShardRows.
	c.mu.Lock()
	m.rowsPerSec = 1
	c.mu.Unlock()
	if got := c.targetShardRows(); got != 100 {
		t.Fatalf("clamped floor = %d, want 100", got)
	}
	c.mu.Lock()
	m.rowsPerSec = 1e9
	c.mu.Unlock()
	if got := c.targetShardRows(); got != 50_000 {
		t.Fatalf("clamped ceiling = %d, want 50000", got)
	}
	// Zero-valued observations are ignored rather than poisoning the EWMA.
	c.observeRate(m, 0, time.Second)
	c.observeRate(m, 100, 0)
	c.mu.Lock()
	rate := m.rowsPerSec
	c.mu.Unlock()
	if rate != 1e9 {
		t.Fatalf("degenerate observations changed the rate: %v", rate)
	}
}

// TestSplitTask pins the re-split mechanics: the two children partition
// the parent's rows exactly, round-trip through the same CSV framing a
// fresh shard would use, and inherit the attempt budget and failure set.
func TestSplitTask(t *testing.T) {
	f := newAuditFixture(t, 101, 1)
	var buf strings.Builder
	if err := relation.WriteCSV(&buf, f.rel); err != nil {
		t.Fatal(err)
	}
	s := &scan{job: ScanJob{Schema: f.spec}, ctx: context.Background(), schema: f.schema, format: "csv"}
	task := &shardTask{
		idx: 7, data: buf.String(), rows: 101, attempts: 1,
		failed: map[string]bool{"w-dead": true},
	}
	children, err := s.splitTask(task)
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 2 {
		t.Fatalf("split produced %d children, want 2", len(children))
	}
	if children[0].rows != 50 || children[1].rows != 51 {
		t.Fatalf("children rows = %d + %d, want 50 + 51", children[0].rows, children[1].rows)
	}
	var rejoined []relation.Tuple
	for i, ch := range children {
		if ch.idx != 7 || ch.sub != i || !ch.child || ch.attempts != 1 || !ch.failed["w-dead"] {
			t.Fatalf("child %d metadata wrong: %+v", i, ch)
		}
		r, err := relation.ReadCSV(strings.NewReader(ch.data), f.schema)
		if err != nil {
			t.Fatal(err)
		}
		n := r.Len()
		for j := 0; j < n; j++ {
			rejoined = append(rejoined, r.Tuple(j))
		}
		if n != ch.rows {
			t.Fatalf("child %d payload has %d rows, header says %d", i, n, ch.rows)
		}
	}
	// Mutating a child's failure set must not leak into its sibling.
	children[0].failed["w-other"] = true
	if children[1].failed["w-other"] {
		t.Fatal("children share a failed set")
	}
	orig, err := relation.ReadCSV(strings.NewReader(task.data), f.schema)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Len() != len(rejoined) {
		t.Fatalf("split round-trip has %d rows, want %d", len(rejoined), orig.Len())
	}
	for i := 0; i < orig.Len(); i++ {
		if !reflect.DeepEqual(orig.Tuple(i), rejoined[i]) {
			t.Fatalf("row %d changed across the split round-trip", i)
		}
	}
}

// TestScanShardsAutoUnequalShards is the feature's acceptance test: two
// workers with very different speeds, auto shard sizing on. The fast
// worker must end up receiving larger shards than the artificially
// throttled one, and the merged tallies must stay bit-identical to a
// single-node scan of the same stream.
func TestScanShardsAutoUnequalShards(t *testing.T) {
	f := newAuditFixture(t, 8000, 2)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	want := f.localTallies(t, prep)

	c := NewCoordinator(Config{
		AutoShardRows:      true,
		ShardRows:          400, // cold-start seed
		TargetShardLatency: 100 * time.Millisecond,
		MinShardRows:       50,
		MaxShardRows:       100_000,
	})
	var mu sync.Mutex
	sizes := map[string][]int{}
	record := func(worker string) func(api.ShardScanRequest) {
		return func(req api.ShardScanRequest) {
			rows := payloadRows(req.Data)
			mu.Lock()
			sizes[worker] = append(sizes[worker], rows)
			mu.Unlock()
			if worker == "slow" {
				// ~1ms per row caps the slow worker near 1k rows/s,
				// far under what any real scan manages, even one slowed
				// by the race detector.
				time.Sleep(time.Duration(rows) * time.Millisecond)
			}
		}
	}
	fast := startTestWorker(t)
	fast.delay = record("fast")
	fast.register(c, "fast", 1)
	slow := startTestWorker(t)
	slow.delay = record("slow")
	slow.register(c, "slow", 1)

	got, err := c.ScanShards(context.Background(), f.rows(), prep.Scanners(), ScanJob{
		Records: prep.Records(), Schema: f.spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("auto-sized cluster tallies diverged from local scan")
	}
	assertReportsEqualBothAggregations(t, f, got, want)

	mu.Lock()
	defer mu.Unlock()
	if len(sizes["fast"]) == 0 || len(sizes["slow"]) == 0 {
		t.Fatalf("both workers should have served shards: %v", sizes)
	}
	// The discriminating signal is the largest shard each worker was
	// trusted with: the fast worker's rate keeps growing its shards
	// while the slow worker's throttle keeps its target near
	// rate * latency ≈ 100 rows.
	if maxInts(sizes["fast"]) <= maxInts(sizes["slow"]) {
		t.Fatalf("auto sizing gave the fast worker no larger shards: fast %v, slow %v",
			sizes["fast"], sizes["slow"])
	}
}

// TestScanShardsAutoSplitsFailedShards drives the re-split path end to
// end: one worker fails every shard it is handed (an application error,
// so it keeps its lease and stays in the rotation), and each failed
// shard must be re-cut into two half-sized children that complete on
// the healthy worker — observable as two sibling requests whose row
// counts partition the failed shard's.
func TestScanShardsAutoSplitsFailedShards(t *testing.T) {
	f := newAuditFixture(t, 3000, 2)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	want := f.localTallies(t, prep)

	c := NewCoordinator(Config{
		AutoShardRows:      true,
		ShardRows:          500,
		TargetShardLatency: 50 * time.Millisecond,
		MinShardRows:       50,
		MaxShardRows:       1000,
	})
	var mu sync.Mutex
	failedRows := map[int]int{}   // shard idx -> rows of the payload that failed
	servedRows := map[int][]int{} // shard idx -> rows of each request served OK

	bad := startTestWorker(t)
	bad.failWith = func(req api.ShardScanRequest) error {
		mu.Lock()
		failedRows[req.Shard] = payloadRows(req.Data)
		mu.Unlock()
		return errors.New("synthetic shard failure")
	}
	bad.register(c, "bad", 1)
	good := startTestWorker(t)
	good.delay = func(req api.ShardScanRequest) {
		mu.Lock()
		servedRows[req.Shard] = append(servedRows[req.Shard], payloadRows(req.Data))
		mu.Unlock()
	}
	good.register(c, "good", 1)

	got, err := c.ScanShards(context.Background(), f.rows(), prep.Scanners(), ScanJob{
		Records: prep.Records(), Schema: f.spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("split-and-retried cluster tallies diverged from local scan")
	}
	assertReportsEqualBothAggregations(t, f, got, want)

	mu.Lock()
	defer mu.Unlock()
	if len(failedRows) == 0 {
		t.Fatal("the failing worker never received a shard; the test proved nothing")
	}
	for idx, rows := range failedRows {
		if rows < 2*50 {
			continue // too small to split; retried whole
		}
		halves := servedRows[idx]
		if len(halves) != 2 {
			t.Fatalf("shard %d (%d rows) failed once but was served as %v requests, want 2 children",
				idx, rows, halves)
		}
		if halves[0]+halves[1] != rows {
			t.Fatalf("shard %d children rows %v do not partition the original %d", idx, halves, rows)
		}
	}
}

// payloadRows counts the data rows of a CSV shard payload (one header
// line, one line per row).
func payloadRows(data string) int {
	n := strings.Count(data, "\n")
	if !strings.HasSuffix(data, "\n") {
		n++
	}
	return n - 1 // header
}

func maxInts(xs []int) int {
	best := 0
	for _, x := range xs {
		if x > best {
			best = x
		}
	}
	return best
}

// TestWorkerStatusCarriesRates pins the /healthz surface: registration
// rates and the observed EWMA show up on the worker's status row.
func TestWorkerStatusCarriesRates(t *testing.T) {
	c := NewCoordinator(Config{})
	c.Register(api.WorkerRegistration{
		ID: "w", URL: "http://w", Kernel: "multibuffer4", HashesPerSec: 7e6,
	})
	c.mu.Lock()
	m := c.members["w"]
	c.mu.Unlock()
	c.observeRate(m, 9000, time.Second)

	st := c.Status()
	if len(st.Workers) != 1 {
		t.Fatalf("want 1 worker, got %d", len(st.Workers))
	}
	w := st.Workers[0]
	if w.Kernel != "multibuffer4" || w.HashesPerSec != 7e6 || w.RowsPerSec != 9000 {
		t.Fatalf("status row lost the rates: %+v", w)
	}
	if fmt.Sprintf("%.0f", w.RowsPerSec) != "9000" {
		t.Fatalf("rows/s = %v", w.RowsPerSec)
	}
}
