package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
)

// hugeWorkers is a worker count no node has: the pipeline must never
// see it, because sizing chunks or channels by it overflows or
// exhausts memory.
const hugeWorkers = 1 << 62

// TestRequestWorkersClamped sends a huge "workers" value to every route
// that takes one — a watermark job, verify, batch verify as JSON and as
// a streamed CSV, and a shard scan — and requires each to complete with
// the same reply as the same request with workers 0: a request may
// lower the node's worker count, never raise it.
func TestRequestWorkersClamped(t *testing.T) {
	ts, _ := newTestServerWithClose(t, Config{Workers: 2})
	csv, domain := testCSV(t, 3000)
	owner, marked := watermarkFixture(t, ts, "clamp-owner", csv, domain)

	t.Run("watermark job", func(t *testing.T) {
		run := func(workers int) api.WatermarkResponse {
			var job api.Job
			status, _ := doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", api.JobRequest{
				Kind: api.JobKindWatermark,
				Watermark: &api.WatermarkRequest{
					Schema: testSchemaSpec, Data: csv, Secret: "clamp-job", Attribute: "Item_Nbr",
					WM: "1011001110", E: 30, Domain: domain, Workers: workers,
				},
			}, &job)
			if status != http.StatusAccepted {
				t.Fatalf("workers %d: submit status %d", workers, status)
			}
			if job = waitJobDone(t, ts.URL, job.ID); job.State != api.JobDone || job.Watermark == nil {
				t.Fatalf("workers %d: job ended %s: %+v", workers, job.State, job.Error)
			}
			resp := *job.Watermark
			resp.ID = "" // a fresh certificate ID per job
			return resp
		}
		if got, want := run(hugeWorkers), run(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("huge workers changed the watermark reply:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("verify", func(t *testing.T) {
		run := func(workers int) api.VerifyResponse {
			var resp api.VerifyResponse
			req := api.VerifyRequest{ID: owner, Schema: testSchemaSpec, Data: marked, Workers: workers}
			if status := postJSON(t, ts.URL+"/v1/verify", req, &resp); status != http.StatusOK {
				t.Fatalf("workers %d: status %d", workers, status)
			}
			return resp
		}
		if got, want := run(hugeWorkers), run(0); got != want || want.Match != 1 {
			t.Fatalf("huge workers changed the verify reply:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("batch json", func(t *testing.T) {
		run := func(workers int) api.BatchVerifyResponse {
			var resp api.BatchVerifyResponse
			req := api.BatchVerifyRequest{Records: []string{owner}, Schema: testSchemaSpec, Data: marked, Workers: workers}
			if status := postJSON(t, ts.URL+"/v1/verify/batch", req, &resp); status != http.StatusOK {
				t.Fatalf("workers %d: status %d", workers, status)
			}
			return resp
		}
		if got, want := run(hugeWorkers), run(0); !reflect.DeepEqual(got, want) || want.Results[0].Match != 1 {
			t.Fatalf("huge workers changed the batch reply:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("batch csv", func(t *testing.T) {
		run := func(workers int) api.BatchVerifyResponse {
			var resp api.BatchVerifyResponse
			u := ts.URL + "/v1/verify/batch?schema=" + url.QueryEscape(testSchemaSpec) +
				"&records=" + owner + "&workers=" + strconv.Itoa(workers)
			if status := postRaw(t, u, api.ContentTypeCSV, marked, &resp); status != http.StatusOK {
				t.Fatalf("workers %d: status %d", workers, status)
			}
			return resp
		}
		if got, want := run(hugeWorkers), run(0); !reflect.DeepEqual(got, want) || want.Results[0].Match != 1 {
			t.Fatalf("huge workers changed the streamed batch reply:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("shard", func(t *testing.T) {
		f := newWireFixture(t, 600)
		records, err := json.Marshal([]*core.Record{f.rec})
		if err != nil {
			t.Fatal(err)
		}
		c := client.New(ts.URL)
		run := func(workers int) *api.ShardScanResponse {
			req := api.ShardScanRequest{Schema: wireSchemaSpec, Data: f.csv, Records: []*core.Record{f.rec}, Workers: workers}
			resp, err := c.ScanShard(context.Background(), req, records, 1<<20)
			if err != nil {
				t.Fatalf("workers %d: %v", workers, err)
			}
			return resp
		}
		if got, want := run(hugeWorkers), run(0); !reflect.DeepEqual(got, want) || want.Tallies[0].Fit == 0 {
			t.Fatalf("huge workers changed the shard reply:\n got %+v\nwant %+v", got, want)
		}
	})
}
