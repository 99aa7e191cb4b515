package server

import (
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/relation"
)

// insertAfterLine returns data with extra inserted after its n-th line.
func insertAfterLine(data string, n int, extra string) string {
	at := 0
	for i := 0; i < n; i++ {
		at += strings.IndexByte(data[at:], '\n') + 1
	}
	return data[:at] + extra + data[at:]
}

// csvToJSONL re-serializes a CSV suspect as JSONL.
func csvToJSONL(t *testing.T, csv string) string {
	t.Helper()
	schema, err := relation.ParseSchemaSpec(testSchemaSpec)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := relation.ReadCSV(strings.NewReader(csv), schema)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := relation.WriteJSONL(&b, rel); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// runBatchJob submits a verify_batch job and waits for it to finish.
func runBatchJob(t *testing.T, baseURL, format, data string) api.Job {
	t.Helper()
	job := submitBatchJob(t, baseURL, api.BatchVerifyRequest{
		Schema: testSchemaSpec, Format: format, Data: data,
	}, nil)
	return waitJobDone(t, baseURL, job.ID)
}

// TestMalformedSuspectErrorParity sends the same malformed suspects as a
// local verify_batch job (no workers joined) and as a distributed one:
// every case must fail with the same code on both paths. Field-level
// errors are only met by the worker parsing the shard; on the cluster
// path they must come back confirmed by the coordinator's own parse of
// that shard, named by its row range.
func TestMalformedSuspectErrorParity(t *testing.T) {
	srv, ts := newClusterCoordinator(t, 40)
	csv, domain := testCSV(t, 600)
	_, marked := watermarkFixture(t, ts, "parity-owner", csv, domain)
	jsonl := csvToJSONL(t, marked)

	cases := []struct {
		name, format, data string
		// worker marks field-level errors: the skim passes the rows, the
		// worker's parse rejects them.
		worker bool
	}{
		{"csv unknown column", "csv", strings.Replace(marked, "Item_Nbr", "Wrong", 1), false},
		{"csv wrong arity", "csv", insertAfterLine(marked, 101, "1,2,3\n"), true},
		{"csv bare quote", "csv", insertAfterLine(marked, 101, "1,a\"b\"\n"), true},
		{"csv bad quote escape", "csv", insertAfterLine(marked, 101, "1,\"a\"b\"c\"\n"), true},
		{"csv unterminated quote", "csv", insertAfterLine(marked, 101, "1,\"abc\n"), false},
		{"csv garbage between records", "csv", insertAfterLine(marked, 101, "garbage\n"), true},
		{"jsonl unknown column", "jsonl", insertAfterLine(jsonl, 100, `{"Visit_Nbr":"1","Wrong":"2"}`+"\n"), true},
		{"jsonl wrong arity", "jsonl", insertAfterLine(jsonl, 100, `{"Visit_Nbr":"1"}`+"\n"), true},
		{"jsonl bad escape", "jsonl", insertAfterLine(jsonl, 100, `{"Visit_Nbr":"1\q","Item_Nbr":"2"}`+"\n"), true},
		{"jsonl number value", "jsonl", insertAfterLine(jsonl, 100, `{"Visit_Nbr":"1","Item_Nbr":2}`+"\n"), true},
		{"jsonl bare quote", "jsonl", insertAfterLine(jsonl, 100, `{"Visit_Nbr":"1"2","Item_Nbr":"2"}`+"\n"), false},
		{"jsonl unterminated object", "jsonl", jsonl + `{"Visit_Nbr":"1"`, false},
		{"jsonl garbage between records", "jsonl", insertAfterLine(jsonl, 100, "garbage\n"), false},
	}
	local := make([]api.Job, len(cases))
	for i, tc := range cases {
		if local[i] = runBatchJob(t, ts.URL, tc.format, tc.data); local[i].State != api.JobFailed {
			t.Fatalf("%s: local job %s, want failed", tc.name, local[i].State)
		}
	}

	newClusterWorker(t, srv, "w0", 2, nil)
	newClusterWorker(t, srv, "w1", 2, nil)
	for i, tc := range cases {
		got := runBatchJob(t, ts.URL, tc.format, tc.data)
		if got.State != api.JobFailed || got.Error == nil || local[i].Error == nil {
			t.Fatalf("%s: cluster job %s (%+v), local %+v", tc.name, got.State, got.Error, local[i].Error)
		}
		if got.Error.Code != local[i].Error.Code || got.Error.Code != api.CodeInvalidArgument {
			t.Fatalf("%s: cluster code %s (%s), local code %s (%s), want both %s", tc.name,
				got.Error.Code, got.Error.Message, local[i].Error.Code, local[i].Error.Message, api.CodeInvalidArgument)
		}
		if tc.worker && !strings.Contains(got.Error.Message, "suspect rows 81-120") {
			t.Fatalf("%s: cluster error %q should name the rejected shard's rows 81-120", tc.name, got.Error.Message)
		}
	}
	if live := srv.Coordinator().LiveWorkers(); live != 2 {
		t.Fatalf("malformed suspects cost workers their lease: %d live, want 2", live)
	}
}

// TestClusterJobSurvivesWorkerRejectingValidRows pairs a healthy worker
// with one that answers invalid_argument to every shard: the
// coordinator's own parse finds the rows valid, so each rejected shard
// retries on the healthy worker, and the job finishes equal to the
// local scan.
func TestClusterJobSurvivesWorkerRejectingValidRows(t *testing.T) {
	srv, ts := newClusterCoordinator(t, 40)
	csv, domain := testCSV(t, 600)
	_, marked := watermarkFixture(t, ts, "reject-owner", csv, domain)
	jsonl := csvToJSONL(t, marked)
	want := map[string]api.Job{
		"csv":   runBatchJob(t, ts.URL, "csv", marked),
		"jsonl": runBatchJob(t, ts.URL, "jsonl", jsonl),
	}

	var rejected atomic.Int64
	newClusterWorker(t, srv, "liar", 1, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v2/internal/scan" {
				h.ServeHTTP(w, r)
				return
			}
			rejected.Add(1)
			writeErr(w, api.Errorf(api.CodeInvalidArgument, "shard scan: rows look wrong to me"))
		})
	})
	newClusterWorker(t, srv, "good", 1, nil)
	for format, data := range map[string]string{"csv": marked, "jsonl": jsonl} {
		got := runBatchJob(t, ts.URL, format, data)
		if got.State != api.JobDone {
			t.Fatalf("%s: job %s (%+v), want done", format, got.State, got.Error)
		}
		if !reflect.DeepEqual(got.VerifyBatch, want[format].VerifyBatch) {
			t.Fatalf("%s: cluster result %+v differs from local %+v", format, got.VerifyBatch, want[format].VerifyBatch)
		}
	}
	if rejected.Load() == 0 {
		t.Fatal("the rejecting worker never received a shard; the test proved nothing")
	}
}
