package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unicode/utf16"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mark"
	"repro/internal/pipeline"
	"repro/internal/relation"
	"repro/internal/server/store"
)

const wireSchemaSpec = "Tag:string!key, Color:string:categorical"

// wireFixture is a watermarked relation whose keys and categorical values
// exercise every quoting and escaping rule of both row formats, plus its
// CSV rendering and a JSONL rendering with every non-ASCII rune written
// as a \u escape (astral runes as surrogate pairs).
type wireFixture struct {
	rel        *relation.Relation
	rec        *core.Record
	csv, jsonl string
}

func newWireFixture(t *testing.T, n int) *wireFixture {
	t.Helper()
	values := []string{"plain", "a,b", `say "hi"`, "two\nlines", "café", "😀 grin", `back\slash`, "tab\tend"}
	schema, err := relation.ParseSchemaSpec(wireSchemaSpec)
	if err != nil {
		t.Fatal(err)
	}
	rel := relation.New(schema)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("id-%d, \"%c\"\n😀/%d", i, 'a'+i%26, i*i)
		if err := rel.Append(relation.Tuple{key, values[(i*7)%len(values)]}); err != nil {
			t.Fatal(err)
		}
	}
	dom, err := relation.NewDomain(values)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := core.Watermark(rel, core.Spec{Secret: "wire-owner", Attribute: "Color", WM: "1011", E: 3, Domain: dom})
	if err != nil {
		t.Fatal(err)
	}
	var csv, jsonl strings.Builder
	if err := relation.WriteCSV(&csv, rel); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rel.Len(); i++ {
		tu := rel.Tuple(i)
		fmt.Fprintf(&jsonl, "{\"Tag\":%s,\"Color\":%s}\n", asciiJSON(tu[0]), asciiJSON(tu[1]))
	}
	return &wireFixture{rel: rel, rec: rec, csv: csv.String(), jsonl: jsonl.String()}
}

// asciiJSON renders s as a JSON string literal in pure ASCII.
func asciiJSON(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch {
		case r == '"' || r == '\\' || r == '/':
			b.WriteByte('\\')
			b.WriteRune(r)
		case r == '\n':
			b.WriteString(`\n`)
		case r < 0x20 || r >= 0x80:
			for _, u := range utf16.Encode([]rune{r}) {
				fmt.Fprintf(&b, `\u%04x`, u)
			}
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// TestShardWireDifferential sends shards in both formats through the
// real handler over the framed body and requires the returned tallies to
// equal both the in-memory worker entry point and a local scan of the
// relation the rows were written from.
func TestShardWireDifferential(t *testing.T) {
	f := newWireFixture(t, 600)
	ctx := context.Background()
	prep := core.PrepareBatch([]*core.Record{f.rec}, f.rel.Schema(), core.BatchOptions{})
	local, err := pipeline.ScanMany(ctx, relation.Rows(f.rel), prep.Scanners(), pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := []mark.TallyWire{local[0].Wire()}
	if want[0].Fit == 0 {
		t.Fatal("fixture has no fit rows; the differential would compare empty tallies")
	}
	ts := newTestServer(t)
	c := client.New(ts.URL)
	for format, data := range map[string]string{"csv": f.csv, "jsonl": f.jsonl} {
		req := api.ShardScanRequest{Shard: 2, Schema: wireSchemaSpec, Format: format, Data: data, Records: []*core.Record{f.rec}}
		mem, err := cluster.ExecuteShard(ctx, req, core.BatchOptions{})
		if err != nil {
			t.Fatalf("%s in memory: %v", format, err)
		}
		wire, err := c.ScanShard(ctx, req)
		if err != nil {
			t.Fatalf("%s over HTTP: %v", format, err)
		}
		if wire.Shard != 2 || wire.Rows != f.rel.Len() {
			t.Fatalf("%s: shard %d rows %d, want shard 2 rows %d", format, wire.Shard, wire.Rows, f.rel.Len())
		}
		if !reflect.DeepEqual(wire.Tallies, mem.Tallies) {
			t.Fatalf("%s: handler tallies diverged from ExecuteShard", format)
		}
		if !reflect.DeepEqual(wire.Tallies, want) {
			t.Fatalf("%s: handler tallies diverged from the local scan", format)
		}
	}
}

// postShard POSTs a raw shard body and decodes the reply's error code.
func postShard(t *testing.T, baseURL, contentType string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v2/internal/scan", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e api.Error
	json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck // a 200 carries no envelope
	return resp.StatusCode, e.Code
}

// TestInternalScanHostileInput feeds the shard handler malformed and
// oversized bodies: each must be refused with a typed 400 or 413.
func TestInternalScanHostileInput(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(st, Config{Workers: 2, MaxBodyBytes: 4096}).Handler())
	t.Cleanup(ts.Close)

	header := func(req api.ShardScanRequest) []byte {
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	lean := api.ShardScanRequest{Schema: testSchemaSpec, Records: []*core.Record{streamLimitRecord()}}
	hdr := header(lean)
	inline := lean
	inline.Data = "Visit_Nbr,Item_Nbr\n1,2\n"
	huge := *streamLimitRecord()
	for i := len(huge.Domain); len(huge.Domain) < 1000; i++ {
		huge.Domain = append(huge.Domain, fmt.Sprint(i))
	}
	bigRows := "Visit_Nbr,Item_Nbr\n"
	for i := 0; len(bigRows) < 8192; i++ {
		bigRows += fmt.Sprintf("%d,%d\n", i, i%4)
	}

	for _, tc := range []struct {
		name, contentType string
		body              []byte
		status            int
		code              string
	}{
		{"inline data", api.ContentTypeShard, header(inline), http.StatusBadRequest, api.CodeInvalidArgument},
		{"truncated header", api.ContentTypeShard, hdr[:len(hdr)/2], http.StatusBadRequest, api.CodeInvalidArgument},
		{"empty body", api.ContentTypeShard, nil, http.StatusBadRequest, api.CodeInvalidArgument},
		{"rows without header", api.ContentTypeShard, []byte("Visit_Nbr,Item_Nbr\n1,2\n"), http.StatusBadRequest, api.CodeInvalidArgument},
		{"json body", api.ContentTypeJSON, header(inline), http.StatusBadRequest, api.CodeInvalidArgument},
		{"no certificates", api.ContentTypeShard, append(header(api.ShardScanRequest{Schema: testSchemaSpec}), "Visit_Nbr,Item_Nbr\n"...), http.StatusBadRequest, api.CodeInvalidArgument},
		{"malformed rows", api.ContentTypeShard, append(bytes.Clone(hdr), "Visit_Nbr,Item_Nbr\n1,2,3\n"...), http.StatusBadRequest, api.CodeInvalidArgument},
		{"header over limit", api.ContentTypeShard, header(api.ShardScanRequest{Schema: testSchemaSpec, Records: []*core.Record{&huge}}), http.StatusRequestEntityTooLarge, api.CodePayloadTooLarge},
		{"rows over limit", api.ContentTypeShard, append(bytes.Clone(hdr), bigRows...), http.StatusRequestEntityTooLarge, api.CodePayloadTooLarge},
	} {
		status, code := postShard(t, ts.URL, tc.contentType, tc.body)
		if status != tc.status || code != tc.code {
			t.Errorf("%s: status %d code %q, want %d %q", tc.name, status, code, tc.status, tc.code)
		}
	}
	// The same framing under the limit scans fine.
	if status, code := postShard(t, ts.URL, api.ContentTypeShard, append(bytes.Clone(hdr), "Visit_Nbr,Item_Nbr\n1,2\n"...)); status != http.StatusOK {
		t.Fatalf("well-formed shard: status %d code %q", status, code)
	}
}

// TestShardLeanCertificates captures the shard bodies a worker receives
// during a distributed audit: every certificate travels without its
// frequency profile and with every scan parameter intact, and stripping
// the profile does not cost the worker's scanner cache a hit on shards
// 2..N.
func TestShardLeanCertificates(t *testing.T) {
	const shardRows, rows = 500, 3000
	srv, ts := newClusterCoordinator(t, shardRows)
	csv, domain := testCSV(t, rows)
	idA, _ := watermarkFixture(t, ts, "lean-owner", csv, domain)
	idB, marked := watermarkFixture(t, ts, "lean-owner-2", csv, domain)
	stored := map[string]*core.Record{}
	for _, id := range []string{idA, idB} {
		rec, err := srv.store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Profile) == 0 {
			t.Fatalf("stored certificate %s has no profile; nothing to strip", id)
		}
		stored[rec.Secret] = rec
	}

	wst, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	worker := New(wst, Config{Workers: 2})
	var (
		mu     sync.Mutex
		bodies [][]byte
	)
	wts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v2/internal/scan" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			mu.Lock()
			bodies = append(bodies, body)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		worker.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() { wts.Close(); worker.Close() })
	// Capacity 1 keeps the shards sequential, so only the first can miss.
	srv.Coordinator().Register(api.WorkerRegistration{ID: "lean", URL: wts.URL, Capacity: 1})

	if status, body := rawBody(t, ts.URL+"/v2/verify/batch?schema="+url.QueryEscape(testSchemaSpec), marked); status != http.StatusOK {
		t.Fatalf("audit status %d: %s", status, body)
	}
	shards := rows / shardRows
	if len(bodies) != shards {
		t.Fatalf("worker saw %d shard bodies, want %d", len(bodies), shards)
	}

	var hdr struct {
		Records []map[string]json.RawMessage `json:"records"`
	}
	if err := json.NewDecoder(bytes.NewReader(bodies[0])).Decode(&hdr); err != nil {
		t.Fatal(err)
	}
	if len(hdr.Records) != len(stored) {
		t.Fatalf("shard carried %d certificates, want %d", len(hdr.Records), len(stored))
	}
	for _, got := range hdr.Records {
		if p := string(got["profile"]); p != "null" {
			t.Fatalf("shard certificate carries profile %.40s…, want null", p)
		}
		var secret string
		if err := json.Unmarshal(got["secret"], &secret); err != nil {
			t.Fatal(err)
		}
		rec, ok := stored[secret]
		if !ok {
			t.Fatal("shard certificate matches no stored certificate")
		}
		var want map[string]json.RawMessage
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"secret", "domain", "wm", "e", "bandwidth"} {
			if !bytes.Equal(got[field], want[field]) {
				t.Fatalf("certificate field %s = %s, want %s", field, got[field], want[field])
			}
		}
	}

	stats := worker.cache.Stats()
	if stats.Misses != uint64(len(stored)) || stats.Hits != uint64(len(stored)*(shards-1)) {
		t.Fatalf("worker scanner cache %+v, want %d misses and %d hits", stats, len(stored), len(stored)*(shards-1))
	}
}

// TestClusterJobFailsOnShortShards truncates every shard body a worker
// receives by its last row: the workers answer with well-formed short
// tallies, and the job must fail with a classified cluster error rather
// than report over a corpus with holes.
func TestClusterJobFailsOnShortShards(t *testing.T) {
	srv, ts := newClusterCoordinator(t, 400)
	csv, domain := testCSV(t, 2000)
	_, marked := watermarkFixture(t, ts, "short-owner", csv, domain)
	dropLastRow := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			body = bytes.TrimSuffix(body, []byte("\n"))
			body = body[:bytes.LastIndexByte(body, '\n')+1]
			r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
			next.ServeHTTP(w, r)
		})
	}
	newClusterWorker(t, srv, "short0", 1, dropLastRow)
	newClusterWorker(t, srv, "short1", 1, dropLastRow)

	job := submitBatchJob(t, ts.URL, api.BatchVerifyRequest{Schema: testSchemaSpec, Data: marked}, nil)
	job = waitJobDone(t, ts.URL, job.ID)
	if job.State != api.JobFailed || job.Error == nil {
		t.Fatalf("job ended %s (%+v), want failed", job.State, job.Error)
	}
	if job.Error.Code != api.CodeInternal || !strings.Contains(job.Error.Message, "cluster: ") ||
		!strings.Contains(job.Error.Message, "scanned 399 rows, want 400") {
		t.Fatalf("job error %+v, want an internal cluster error naming the short row count", job.Error)
	}
}
