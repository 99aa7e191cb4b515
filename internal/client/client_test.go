package client_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/server/store"
)

const testSchemaSpec = "Visit_Nbr:int!key, Item_Nbr:int:categorical"

// newTestClient spins a real server over a temp store and returns an SDK
// client bound to it, plus the store for white-box fixtures.
func newTestClient(t *testing.T, cfg server.Config) (*client.Client, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(st, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return client.New(ts.URL), st
}

func testCSV(t *testing.T, n int) (csv string, domain []string) {
	t.Helper()
	r, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: n, CatalogSize: 200, ZipfS: 1.0, Seed: "client-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := relation.WriteCSV(&b, r); err != nil {
		t.Fatal(err)
	}
	return b.String(), dom.Values()
}

// TestSDKWatermarkVerifyRoundTrip drives the synchronous surface through
// the SDK: watermark, then a streamed verify of the marked copy. The
// record, health and JSON-body verify routes are covered by the server's
// own httptest suites.
func TestSDKWatermarkVerifyRoundTrip(t *testing.T) {
	c, _ := newTestClient(t, server.Config{Workers: 2})
	ctx := context.Background()
	csv, domain := testCSV(t, 5000)

	wm, err := c.Watermark(ctx, api.WatermarkRequest{
		Schema: testSchemaSpec, Data: csv, Secret: "sdk-secret",
		Attribute: "Item_Nbr", WM: "1011001110", E: 30, Domain: domain,
	})
	if err != nil {
		t.Fatal(err)
	}
	if wm.ID == "" || wm.Altered == 0 || wm.Data == csv {
		t.Fatalf("watermark did nothing: %+v", wm)
	}

	// Streaming verify: the suspect flows from an io.Reader.
	vs, err := c.VerifyStream(ctx, wm.ID, strings.NewReader(wm.Data), client.StreamOptions{
		Schema: testSchemaSpec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vs.Match != 1 || vs.Verdict != api.VerdictPresent {
		t.Fatalf("streamed verify: %+v", vs)
	}
}

// TestSDKBatchAuditJobToDone is the acceptance round-trip: submit a
// batch-verify job through the SDK against httptest, poll it to done,
// and read the per-certificate reports off the job resource.
func TestSDKBatchAuditJobToDone(t *testing.T) {
	c, _ := newTestClient(t, server.Config{Workers: 2})
	ctx := context.Background()
	csv, domain := testCSV(t, 5000)

	owner, err := c.Watermark(ctx, api.WatermarkRequest{
		Schema: testSchemaSpec, Data: csv, Secret: "audit-owner",
		Attribute: "Item_Nbr", WM: "1011001110", E: 30, Domain: domain,
	})
	if err != nil {
		t.Fatal(err)
	}
	innocent, err := c.Watermark(ctx, api.WatermarkRequest{
		Schema: testSchemaSpec, Data: csv, Secret: "audit-innocent",
		Attribute: "Item_Nbr", WM: "0110100101", E: 30, Domain: domain,
	})
	if err != nil {
		t.Fatal(err)
	}

	job, err := c.SubmitJob(ctx, api.JobRequest{
		Kind: api.JobKindVerifyBatch,
		VerifyBatch: &api.BatchVerifyRequest{
			Records: []string{owner.ID, innocent.ID},
			Schema:  testSchemaSpec,
			Data:    owner.Data,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.State.Terminal() {
		t.Fatalf("submitted job: %+v", job)
	}

	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	final, err := c.WaitJob(waitCtx, job.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.JobDone || final.VerifyBatch == nil {
		t.Fatalf("final job: %+v (error %+v)", final, final.Error)
	}
	res := final.VerifyBatch.Results
	if len(res) != 2 {
		t.Fatalf("results: %+v", res)
	}
	if res[0].ID != owner.ID || res[0].Match != 1 || res[0].Verdict != api.VerdictPresent {
		t.Fatalf("owner report: %+v", res[0])
	}
	if res[1].ID != innocent.ID || res[1].Verdict == api.VerdictPresent || res[1].Match == 1 {
		t.Fatalf("innocent certificate read as present: %+v", res[1])
	}
	if final.VerifyBatch.Tuples != 5000 {
		t.Fatalf("scanned %d tuples, want 5000", final.VerifyBatch.Tuples)
	}
}

// bigAuditFixture registers nCerts synthetic certificates and builds an
// nRows suspect CSV — enough scan work that a running audit job has a
// wide cancellation window.
func bigAuditFixture(t *testing.T, st *store.Store, nCerts, nRows int) string {
	t.Helper()
	for i := 0; i < nCerts; i++ {
		_, err := st.Put(&core.Record{
			Secret:    fmt.Sprintf("cancel-cert-%d", i),
			Attribute: "Item_Nbr",
			WM:        "10110011",
			E:         2, // most tuples fit: maximum per-tuple hash work
			Bandwidth: 1024,
			Domain:    []string{"0", "1", "2", "3", "4", "5", "6", "7"},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	b.WriteString("Visit_Nbr,Item_Nbr\n")
	for i := 0; i < nRows; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i, i%8)
	}
	return b.String()
}

// TestSDKCancelRunningJobStopsScan is the second acceptance test: cancel
// a RUNNING batch-audit job through the SDK and observe the scan workers
// exit early via context — the job lands in cancelled (never done), with
// the typed cancelled error on the resource.
func TestSDKCancelRunningJobStopsScan(t *testing.T) {
	c, st := newTestClient(t, server.Config{Workers: 2, JobWorkers: 1})
	ctx := context.Background()
	// 24 certificates × 400k rows ≈ 10M keyed-hash votes: several seconds
	// of scan work, a comfortably wide window to land a cancel in.
	suspect := bigAuditFixture(t, st, 24, 400_000)

	job, err := c.SubmitJob(ctx, api.JobRequest{
		Kind: api.JobKindVerifyBatch,
		VerifyBatch: &api.BatchVerifyRequest{
			Schema: testSchemaSpec,
			Data:   suspect,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the job to actually be running — cancelling a queued job
	// would not exercise the mid-scan path.
	deadline := time.Now().Add(15 * time.Second)
	for {
		cur, err := c.Job(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == api.JobRunning {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished before it could be cancelled: %+v", cur)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", cur.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if _, err := c.CancelJob(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	cancelledAt := time.Now()

	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	final, err := c.WaitJob(waitCtx, job.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.JobCancelled {
		t.Fatalf("cancelled job reached %s, want cancelled (%+v)", final.State, final)
	}
	if final.Error == nil || final.Error.Code != api.CodeCancelled {
		t.Fatalf("cancelled job error: %+v", final.Error)
	}
	if final.VerifyBatch != nil {
		t.Fatalf("cancelled job carries results: %+v", final.VerifyBatch)
	}
	// Context cancellation is chunk-granular: the workers drop the scan
	// within a couple of chunks, not after draining 400k rows × 24 certs.
	if took := time.Since(cancelledAt); took > 10*time.Second {
		t.Fatalf("cancellation took %v — scan workers did not exit early", took)
	}
}

// TestSDKTypedErrors asserts error envelopes come back as *api.Error
// with their stable codes intact.
func TestSDKTypedErrors(t *testing.T) {
	c, _ := newTestClient(t, server.Config{Workers: 1})
	ctx := context.Background()

	_, err := c.VerifyStream(ctx, "00000000000000000000000000000000",
		strings.NewReader("Visit_Nbr,Item_Nbr\n1,2\n"), client.StreamOptions{Schema: testSchemaSpec})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
		t.Fatalf("unknown record: %v", err)
	}

	_, err = c.Watermark(ctx, api.WatermarkRequest{Schema: testSchemaSpec, Data: "x"})
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeInvalidArgument {
		t.Fatalf("invalid watermark: %v", err)
	}

	_, err = c.Job(ctx, "job-doesnotexist")
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
		t.Fatalf("unknown job: %v", err)
	}

	_, err = c.SubmitJob(ctx, api.JobRequest{Kind: "mystery"})
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeInvalidArgument {
		t.Fatalf("bad job kind: %v", err)
	}
}

// TestSDKVerifyBatchStream streams a corpus from a reader against the
// whole stored catalog.
func TestSDKVerifyBatchStream(t *testing.T) {
	c, _ := newTestClient(t, server.Config{Workers: 2})
	ctx := context.Background()
	csv, domain := testCSV(t, 4000)

	owner, err := c.Watermark(ctx, api.WatermarkRequest{
		Schema: testSchemaSpec, Data: csv, Secret: "stream-owner",
		Attribute: "Item_Nbr", WM: "1011001110", E: 30, Domain: domain,
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := c.VerifyBatchStream(ctx, nil, strings.NewReader(owner.Data), client.StreamOptions{
		Schema: testSchemaSpec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Match != 1 || resp.Results[0].Verdict != api.VerdictPresent {
		t.Fatalf("streamed batch: %+v", resp.Results)
	}
	if resp.Tuples != 4000 {
		t.Fatalf("scanned %d tuples, want 4000", resp.Tuples)
	}
}

// TestSDKContextCancelsCall asserts a cancelled caller context aborts an
// in-flight SDK call.
func TestSDKContextCancelsCall(t *testing.T) {
	c, st := newTestClient(t, server.Config{Workers: 1})
	suspect := bigAuditFixture(t, st, 8, 200_000)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.VerifyBatchStream(ctx, nil, strings.NewReader(suspect), client.StreamOptions{
		Schema: testSchemaSpec,
	})
	if err == nil {
		t.Fatal("call survived its deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}
