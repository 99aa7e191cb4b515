package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/server/store"
)

// postRaw posts a raw (streamed) body with an explicit content type.
func postRaw(t *testing.T, rawURL, contentType, body string, out any) int {
	t.Helper()
	resp, err := http.Post(rawURL, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

// watermarkFixture embeds a watermark over the API and returns the stored
// certificate ID plus the marked CSV.
func watermarkFixture(t *testing.T, ts *httptest.Server, secret, csv string, domain []string) (id, marked string) {
	t.Helper()
	var wmResp api.WatermarkResponse
	status := postJSON(t, ts.URL+"/v1/watermark", api.WatermarkRequest{
		Schema:    testSchemaSpec,
		Data:      csv,
		Secret:    secret,
		Attribute: "Item_Nbr",
		WM:        "1011001110",
		E:         30,
		Domain:    domain,
	}, &wmResp)
	if status != http.StatusOK {
		t.Fatalf("watermark status %d: %+v", status, wmResp)
	}
	return wmResp.ID, wmResp.Data
}

// TestVerifyBatchStreamedCSV is the acceptance round-trip: a suspect
// dataset streamed as a raw text/csv body is verified against the whole
// stored catalog in one scan — the certificate that marked it reads
// "present", the innocent one "absent" — without the dataset ever
// landing in a request struct.
func TestVerifyBatchStreamedCSV(t *testing.T) {
	ts := newTestServer(t)
	csv, domain := testCSV(t, 6000)
	owner, marked := watermarkFixture(t, ts, "batch-owner", csv, domain)
	other, _ := watermarkFixture(t, ts, "other-owner", csv, domain)

	// Whole catalog (no records parameter).
	u := ts.URL + "/v1/verify/batch?schema=" + url.QueryEscape(testSchemaSpec)
	var resp api.BatchVerifyResponse
	if status := postRaw(t, u, api.ContentTypeCSV, marked, &resp); status != http.StatusOK {
		t.Fatalf("batch status %d: %+v", status, resp)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2 (whole catalog): %+v", len(resp.Results), resp)
	}
	byID := map[string]api.BatchVerifyResult{}
	for _, res := range resp.Results {
		byID[res.ID] = res
	}
	if got := byID[owner]; got.Match != 1 || got.Verdict != "present" || got.Error != "" {
		t.Fatalf("owner certificate: %+v", got)
	}
	if got := byID[other]; got.Verdict != "absent" || got.Error != "" {
		t.Fatalf("innocent certificate: %+v", got)
	}
	if resp.Tuples != 6000 {
		t.Fatalf("scanned %d tuples, want 6000", resp.Tuples)
	}

	// Explicit selection preserves request order.
	u = ts.URL + "/v1/verify/batch?schema=" + url.QueryEscape(testSchemaSpec) +
		"&records=" + other + "," + owner
	if status := postRaw(t, u, api.ContentTypeCSV, marked, &resp); status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}
	if len(resp.Results) != 2 || resp.Results[0].ID != other || resp.Results[1].ID != owner {
		t.Fatalf("selection order not preserved: %+v", resp.Results)
	}
	if resp.Results[1].Match != 1 {
		t.Fatalf("owner certificate via selection: %+v", resp.Results[1])
	}

	// A trailing comma in the selection is tolerated, not a 404 on "".
	u = ts.URL + "/v1/verify/batch?schema=" + url.QueryEscape(testSchemaSpec) +
		"&records=" + owner + ","
	if status := postRaw(t, u, api.ContentTypeCSV, marked, &resp); status != http.StatusOK {
		t.Fatalf("trailing comma: status %d", status)
	}
	if len(resp.Results) != 1 || resp.Results[0].Match != 1 {
		t.Fatalf("trailing comma results: %+v", resp.Results)
	}

	// An unknown ID in the selection is a 404, not a silent skip.
	u = ts.URL + "/v1/verify/batch?schema=" + url.QueryEscape(testSchemaSpec) +
		"&records=00000000000000000000000000000000"
	var e api.Error
	if status := postRaw(t, u, api.ContentTypeCSV, marked, &e); status != http.StatusNotFound {
		t.Fatalf("unknown record: status %d, want 404 (%+v)", status, e)
	}
}

// TestVerifyBatchJSONBody exercises the inline-JSON form of the batch
// endpoint with an explicit record selection.
func TestVerifyBatchJSONBody(t *testing.T) {
	ts := newTestServer(t)
	csv, domain := testCSV(t, 4000)
	owner, marked := watermarkFixture(t, ts, "json-batch-owner", csv, domain)

	var resp api.BatchVerifyResponse
	status := postJSON(t, ts.URL+"/v1/verify/batch", api.BatchVerifyRequest{
		Records: []string{owner},
		Schema:  testSchemaSpec,
		Data:    marked,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %+v", status, resp)
	}
	if len(resp.Results) != 1 || resp.Results[0].Match != 1 || resp.Results[0].Verdict != "present" {
		t.Fatalf("batch JSON verify: %+v", resp.Results)
	}
}

// TestVerifyStreamedNDJSON round-trips a single-certificate streaming
// verify with an application/x-ndjson body.
func TestVerifyStreamedNDJSON(t *testing.T) {
	ts := newTestServer(t)
	csv, domain := testCSV(t, 4000)
	owner, marked := watermarkFixture(t, ts, "ndjson-owner", csv, domain)

	schema, err := relation.ParseSchemaSpec(testSchemaSpec)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := relation.ReadCSV(strings.NewReader(marked), schema)
	if err != nil {
		t.Fatal(err)
	}
	var ndjson strings.Builder
	if err := relation.WriteJSONL(&ndjson, rel); err != nil {
		t.Fatal(err)
	}

	u := ts.URL + "/v1/verify?id=" + owner + "&schema=" + url.QueryEscape(testSchemaSpec)
	var vResp api.VerifyResponse
	if status := postRaw(t, u, api.ContentTypeNDJSON, ndjson.String(), &vResp); status != http.StatusOK {
		t.Fatalf("streamed verify status %d: %+v", status, vResp)
	}
	if vResp.Match != 1 || vResp.Verdict != "present" {
		t.Fatalf("streamed verify: %+v", vResp)
	}
	if vResp.FrequencyMatch != -1 {
		t.Fatalf("one-pass streaming verify scored the frequency channel: %+v", vResp)
	}

	// Streaming verify without an id is a 400.
	var e api.Error
	u = ts.URL + "/v1/verify?schema=" + url.QueryEscape(testSchemaSpec)
	if status := postRaw(t, u, api.ContentTypeCSV, marked, &e); status != http.StatusBadRequest {
		t.Fatalf("missing id: status %d, want 400", status)
	}
}

// TestRequestBodyLimits asserts every request body — JSON and raw
// streamed alike — is bounded by http.MaxBytesReader and rejected with
// 413, not buffered without limit.
func TestRequestBodyLimits(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(st, Config{Workers: 2, MaxBodyBytes: 4096}).Handler())
	t.Cleanup(ts.Close)

	big := strings.Repeat("x", 8192)

	var e api.Error
	if status := postJSON(t, ts.URL+"/v1/watermark", api.WatermarkRequest{
		Schema: testSchemaSpec, Data: big, Secret: "s", Attribute: "Item_Nbr", WM: "101",
	}, &e); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized JSON body: status %d, want 413 (%+v)", status, e)
	}

	bigCSV := "Visit_Nbr,Item_Nbr\n"
	for i := 0; len(bigCSV) < 8192; i++ {
		bigCSV += fmt.Sprintf("%d,%d\n", i, i)
	}
	u := ts.URL + "/v1/verify/batch?schema=" + url.QueryEscape(testSchemaSpec) +
		"&records=00000000000000000000000000000000"
	if status := postRaw(t, u, api.ContentTypeCSV, bigCSV, &e); status != http.StatusNotFound &&
		status != http.StatusRequestEntityTooLarge {
		t.Fatalf("streamed batch pre-scan: status %d (%+v)", status, e)
	}

	// With a real certificate stored, the streamed scan itself must trip
	// the limit mid-read and surface 413.
	id, err := st.Put(streamLimitRecord())
	if err != nil {
		t.Fatal(err)
	}
	u = ts.URL + "/v1/verify/batch?schema=" + url.QueryEscape(testSchemaSpec) + "&records=" + id
	if status := postRaw(t, u, api.ContentTypeCSV, bigCSV, &e); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized streamed body: status %d, want 413 (%+v)", status, e)
	}
}

// streamLimitRecord is a minimal valid certificate for limit tests.
func streamLimitRecord() *core.Record {
	return &core.Record{
		Secret:    "limit-test",
		Attribute: "Item_Nbr",
		WM:        "1011",
		E:         30,
		Bandwidth: 64,
		Domain:    []string{"0", "1", "2", "3"},
	}
}

// TestListRecordsSortedAndLimited asserts the listing is sorted by ID and
// honours the limit query parameter.
func TestListRecordsSortedAndLimited(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := st.Put(streamLimitRecord()); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(st, Config{Workers: 1}).Handler())
	t.Cleanup(ts.Close)

	var listResp map[string][]string
	if s := getJSON(t, ts.URL+"/v1/records", &listResp); s != http.StatusOK {
		t.Fatalf("list status %d", s)
	}
	ids := listResp["records"]
	if len(ids) != 5 {
		t.Fatalf("listed %d, want 5", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("listing not sorted: %v", ids)
		}
	}
	if s := getJSON(t, ts.URL+"/v1/records?limit=2", &listResp); s != http.StatusOK {
		t.Fatalf("limited list status %d", s)
	}
	if got := listResp["records"]; len(got) != 2 || got[0] != ids[0] || got[1] != ids[1] {
		t.Fatalf("limit=2 returned %v, want first two of %v", got, ids[:2])
	}
	var e api.Error
	if s := getJSON(t, ts.URL+"/v1/records?limit=-1", &e); s != http.StatusBadRequest {
		t.Fatalf("negative limit: status %d, want 400", s)
	}
}

// TestConcurrentVerifiesShareScannerCache hammers single and batch verify
// from concurrent clients against the same stored certificates — the
// pattern the prepared-scanner cache exists for. Run under -race in CI.
func TestConcurrentVerifiesShareScannerCache(t *testing.T) {
	ts := newTestServer(t)
	csv, domain := testCSV(t, 3000)
	owner, marked := watermarkFixture(t, ts, "cache-owner", csv, domain)
	other, _ := watermarkFixture(t, ts, "cache-other", csv, domain)

	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				var vResp api.VerifyResponse
				status := postJSON(t, ts.URL+"/v1/verify", api.VerifyRequest{
					ID: owner, Schema: testSchemaSpec, Data: marked,
				}, &vResp)
				if status != http.StatusOK || vResp.Match != 1 {
					errCh <- fmt.Errorf("g%d: verify status %d match %v", g, status, vResp.Match)
					return
				}
				u := ts.URL + "/v1/verify/batch?schema=" + url.QueryEscape(testSchemaSpec) +
					"&records=" + owner + "," + other
				var bResp api.BatchVerifyResponse
				if status := postRaw(t, u, api.ContentTypeCSV, marked, &bResp); status != http.StatusOK {
					errCh <- fmt.Errorf("g%d: batch status %d", g, status)
					return
				}
				if len(bResp.Results) != 2 || bResp.Results[0].Match != 1 {
					errCh <- fmt.Errorf("g%d: batch results %+v", g, bResp.Results)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	var h struct {
		ScannerCache struct {
			Entries int    `json:"entries"`
			Hits    uint64 `json:"hits"`
		} `json:"scanner_cache"`
	}
	if s := getJSON(t, ts.URL+"/healthz", &h); s != http.StatusOK {
		t.Fatalf("healthz status %d", s)
	}
	if h.ScannerCache.Entries == 0 || h.ScannerCache.Hits == 0 {
		t.Fatalf("scanner cache never engaged: %+v", h.ScannerCache)
	}
}
