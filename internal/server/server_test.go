package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/server/store"
)

const testSchemaSpec = "Visit_Nbr:int!key, Item_Nbr:int:categorical"

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(st, Config{Workers: 2}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func testCSV(t *testing.T, n int) (csv string, domain []string) {
	t.Helper()
	r, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: n, CatalogSize: 200, ZipfS: 1.0, Seed: "server-test",
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

func postJSON(t *testing.T, url string, body any, out any) (status int) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) (status int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode
}

// TestWatermarkVerifyRoundTrip is the end-to-end flow the service exists
// for: watermark a relation, persist the certificate, verify the marked
// copy against the stored certificate by ID.
func TestWatermarkVerifyRoundTrip(t *testing.T) {
	ts := newTestServer(t)
	csv, domain := testCSV(t, 6000)

	var wmResp api.WatermarkResponse
	status := postJSON(t, ts.URL+"/v1/watermark", api.WatermarkRequest{
		Schema:    testSchemaSpec,
		Data:      csv,
		Secret:    "server-test-secret",
		Attribute: "Item_Nbr",
		WM:        "1011001110",
		E:         30,
		Domain:    domain,
		Workers:   3,
	}, &wmResp)
	if status != http.StatusOK {
		t.Fatalf("watermark status %d: %+v", status, wmResp)
	}
	if wmResp.ID == "" || wmResp.Altered == 0 || wmResp.Data == csv {
		t.Fatalf("embedding did nothing: %+v", wmResp)
	}

	var vResp api.VerifyResponse
	status = postJSON(t, ts.URL+"/v1/verify", api.VerifyRequest{
		ID:     wmResp.ID,
		Schema: testSchemaSpec,
		Data:   wmResp.Data,
	}, &vResp)
	if status != http.StatusOK {
		t.Fatalf("verify status %d: %+v", status, vResp)
	}
	if vResp.Match != 1 || vResp.Verdict != "present" {
		t.Fatalf("verification of the marked copy failed: %+v", vResp)
	}

	// The pristine data must NOT verify as present.
	status = postJSON(t, ts.URL+"/v1/verify", api.VerifyRequest{
		ID:     wmResp.ID,
		Schema: testSchemaSpec,
		Data:   csv,
	}, &vResp)
	if status != http.StatusOK {
		t.Fatalf("verify status %d", status)
	}
	if vResp.Verdict == "present" {
		t.Fatalf("unmarked data verified as present: %+v", vResp)
	}
}

func TestRecordEndpointRedactsSecret(t *testing.T) {
	ts := newTestServer(t)
	csv, domain := testCSV(t, 3000)

	var wmResp api.WatermarkResponse
	if s := postJSON(t, ts.URL+"/v1/watermark", api.WatermarkRequest{
		Schema: testSchemaSpec, Data: csv, Secret: "hush", Attribute: "Item_Nbr",
		WM: "10110", E: 30, Domain: domain,
	}, &wmResp); s != http.StatusOK {
		t.Fatalf("watermark status %d", s)
	}

	resp, err := http.Get(ts.URL + "/v1/records/" + wmResp.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("record status %d: %s", resp.StatusCode, buf.String())
	}
	if strings.Contains(buf.String(), "hush") {
		t.Fatalf("record endpoint leaked the secret: %s", buf.String())
	}
	var info api.RecordInfo
	if err := json.Unmarshal(buf.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.WMBits != 5 || info.Attribute != "Item_Nbr" || info.DomainSize != len(domain) {
		t.Fatalf("record info wrong: %+v", info)
	}

	var listResp map[string][]string
	if s := getJSON(t, ts.URL+"/v1/records", &listResp); s != http.StatusOK {
		t.Fatalf("list status %d", s)
	}
	if len(listResp["records"]) != 1 || listResp["records"][0] != wmResp.ID {
		t.Fatalf("list wrong: %+v", listResp)
	}

	var del api.DeleteResponse
	if s, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/records/"+wmResp.ID, nil, &del); s != http.StatusOK || del.Deleted != wmResp.ID {
		t.Fatalf("v1 delete: status %d, %+v", s, del)
	}
	var e api.Error
	if s := getJSON(t, ts.URL+"/v1/records/"+wmResp.ID, &e); s != http.StatusNotFound || e.Code != api.CodeNotFound {
		t.Fatalf("deleted record still resolves: status %d, %+v", s, e)
	}
}

// TestVerifyWithInlineRecordAndJSONL watermarks locally through core (the
// way an owner holding their own certificate file would), then verifies
// over the HTTP API with the inline record and a JSONL suspect payload.
func TestVerifyWithInlineRecordAndJSONL(t *testing.T) {
	ts := newTestServer(t)
	r, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: 3000, CatalogSize: 200, ZipfS: 1.0, Seed: "server-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := core.Watermark(r, core.Spec{
		Secret:    "inline-secret",
		Attribute: "Item_Nbr",
		WM:        "1011001110",
		E:         20,
		Domain:    dom,
	})
	if err != nil {
		t.Fatal(err)
	}
	var jb strings.Builder
	if err := relation.WriteJSONL(&jb, r); err != nil {
		t.Fatal(err)
	}
	var vResp api.VerifyResponse
	if s := postJSON(t, ts.URL+"/v1/verify", api.VerifyRequest{
		Record: rec, Schema: testSchemaSpec, Format: "jsonl", Data: jb.String(),
	}, &vResp); s != http.StatusOK {
		t.Fatalf("verify status %d", s)
	}
	if vResp.Match != 1 {
		t.Fatalf("JSONL inline-record verify match %v, want 1", vResp.Match)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t)

	var e api.Error
	if s := postJSON(t, ts.URL+"/v1/watermark", api.WatermarkRequest{
		Schema: "bogus spec", Data: "x", Secret: "s", Attribute: "A", WM: "101",
	}, &e); s != http.StatusBadRequest {
		t.Fatalf("bad schema: status %d, want 400 (%+v)", s, e)
	}
	if s := postJSON(t, ts.URL+"/v1/verify", api.VerifyRequest{
		Schema: testSchemaSpec, Data: "Visit_Nbr,Item_Nbr\n1,10\n",
	}, &e); s != http.StatusBadRequest {
		t.Fatalf("missing certificate: status %d, want 400 (%+v)", s, e)
	}
	if s := getJSON(t, ts.URL+"/v1/records/00000000000000000000000000000000", &e); s != http.StatusNotFound {
		t.Fatalf("unknown record: status %d, want 404 (%+v)", s, e)
	}
	resp, err := http.Post(ts.URL+"/v1/watermark", "application/json", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken JSON: status %d, want 400", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	var h map[string]any
	if s := getJSON(t, ts.URL+"/healthz", &h); s != http.StatusOK {
		t.Fatalf("healthz status %d", s)
	}
	if h["status"] != "ok" {
		t.Fatalf("healthz body: %+v", h)
	}
}
