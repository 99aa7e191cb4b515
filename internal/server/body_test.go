package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
)

// TestJSONBodyTrailingBytes pins the one-value contract of JSON request
// bodies on the synchronous and the job routes: bytes after the value
// are a malformed request, while trailing whitespace stays legal.
func TestJSONBodyTrailingBytes(t *testing.T) {
	ts := newTestServer(t)
	csv, domain := testCSV(t, 400)
	id, marked := watermarkFixture(t, ts, "trailing-owner", csv, domain)
	verify, err := json.Marshal(api.VerifyRequest{ID: id, Schema: testSchemaSpec, Data: marked})
	if err != nil {
		t.Fatal(err)
	}
	job, err := json.Marshal(api.JobRequest{
		Kind:        api.JobKindVerifyBatch,
		VerifyBatch: &api.BatchVerifyRequest{Records: []string{id}, Schema: testSchemaSpec, Data: marked},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := json.Marshal(api.BatchVerifyRequest{Records: []string{id}, Schema: testSchemaSpec, Data: marked})
	if err != nil {
		t.Fatal(err)
	}
	wm, err := json.Marshal(api.WatermarkRequest{
		Schema: testSchemaSpec, Data: csv, Secret: "trailing-owner-2",
		Attribute: "Item_Nbr", WM: "1011001110", E: 30, Domain: domain,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range []struct {
		path string
		body []byte
		ok   int
	}{
		{"/v2/verify", verify, http.StatusOK},
		{"/v2/jobs", job, http.StatusAccepted},
		{"/v2/watermark", wm, http.StatusOK},
		{"/v2/verify/batch", batch, http.StatusOK},
	} {
		for _, tc := range []struct {
			suffix string
			want   int
		}{
			{"", route.ok},
			{"\n", route.ok},
			{" \r\n\t", route.ok},
			{"garbage", http.StatusBadRequest},
			{"{}", http.StatusBadRequest},
			{"\n{\"id\":\"x\"}", http.StatusBadRequest},
		} {
			body := append(append([]byte(nil), route.body...), tc.suffix...)
			resp, err := http.Post(ts.URL+route.path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.want {
				t.Fatalf("%s with suffix %q: status %d, want %d: %s", route.path, tc.suffix, resp.StatusCode, tc.want, data)
			}
			if tc.want == http.StatusBadRequest {
				var e api.Error
				if err := json.Unmarshal(data, &e); err != nil || e.Code != api.CodeInvalidArgument {
					t.Fatalf("%s with suffix %q: error body %s, want code %s", route.path, tc.suffix, data, api.CodeInvalidArgument)
				}
			}
		}
	}
}

// TestReadBodyPreallocation pins readBody's sizing: an honest
// Content-Length buys exactly one buffer of the body's size, and a
// declared length beyond the limit never buys more than the limit.
func TestReadBodyPreallocation(t *testing.T) {
	body := strings.Repeat("x", 64<<10)
	r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
	data, err := readBody(r, 1<<20)
	if err != nil || string(data) != body {
		t.Fatalf("readBody = %d bytes, %v; want the %d-byte body", len(data), err, len(body))
	}
	// Growing as the body arrives would leave a buffer of twice the body.
	if cap(data) > len(body)*3/2 {
		t.Fatalf("honest Content-Length: a %d-byte body read into a %d-byte buffer", len(body), cap(data))
	}

	const limit = 1024
	r = httptest.NewRequest(http.MethodPost, "/", strings.NewReader(`{"a":1}`))
	r.ContentLength = 1 << 40
	if data, err = readBody(r, limit); err != nil || string(data) != `{"a":1}` {
		t.Fatalf("readBody = %q, %v", data, err)
	}
	if cap(data) > limit+bytes.MinRead {
		t.Fatalf("Content-Length past the limit pre-allocated %d bytes, limit %d", cap(data), limit)
	}

	// Past the limit itself, the size-limited body still trips 413.
	rec := httptest.NewRecorder()
	r = httptest.NewRequest(http.MethodPost, "/", strings.NewReader(strings.Repeat(" ", 2*limit)+"{}"))
	r.Body = http.MaxBytesReader(rec, r.Body, limit)
	var v struct{}
	s := &Server{cfg: Config{MaxBodyBytes: limit}}
	if s.decodeBody(rec, r, &v) || rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit body: status %d, want 413", rec.Code)
	}
}
