package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/mark"
)

// TestErrorEnvelopeShape pins the wire shape: the /v1-era {"error": msg}
// key survives, "code" rides along, and decoding a pre-code body still
// works.
func TestErrorEnvelopeShape(t *testing.T) {
	data, err := json.Marshal(Errorf(CodeNotFound, "record %s not found", "abc"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["error"] != "record abc not found" || m["code"] != CodeNotFound {
		t.Fatalf("envelope wrong: %s", data)
	}

	var legacy Error
	if err := json.Unmarshal([]byte(`{"error":"boom"}`), &legacy); err != nil {
		t.Fatal(err)
	}
	if legacy.Message != "boom" || legacy.Code != "" {
		t.Fatalf("legacy body decoded wrong: %+v", legacy)
	}
}

// TestErrorIsError asserts *Error travels as a Go error and is
// recoverable with errors.As.
func TestErrorIsError(t *testing.T) {
	var err error = Errorf(CodeConflict, "job finished")
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Code != CodeConflict {
		t.Fatalf("errors.As failed: %v", err)
	}
	if apiErr.Error() != "conflict: job finished" {
		t.Fatalf("Error() = %q", apiErr.Error())
	}
}

// TestStatusRoundTrip asserts every code maps to a distinct status and
// back.
func TestStatusRoundTrip(t *testing.T) {
	codes := []string{
		CodeInvalidArgument, CodeNotFound, CodeMethodNotAllowed,
		CodePayloadTooLarge, CodeConflict, CodeQueueFull, CodeCancelled,
		CodeInternal,
	}
	seen := map[int]string{}
	for _, code := range codes {
		status := (&Error{Code: code}).HTTPStatus()
		if prev, dup := seen[status]; dup {
			t.Fatalf("codes %s and %s share status %d", prev, code, status)
		}
		seen[status] = code
		if got := CodeForStatus(status); got != code {
			t.Fatalf("CodeForStatus(%d) = %s, want %s", status, got, code)
		}
	}
	if (&Error{}).HTTPStatus() != http.StatusInternalServerError {
		t.Fatal("unknown code must default to 500")
	}
	if CodeForStatus(http.StatusTeapot) != CodeInternal {
		t.Fatal("unknown status must default to internal")
	}
}

// TestJobStateTerminal pins the lifecycle's terminal set.
func TestJobStateTerminal(t *testing.T) {
	for state, terminal := range map[JobState]bool{
		JobQueued: false, JobRunning: false,
		JobDone: true, JobFailed: true, JobCancelled: true,
	} {
		if state.Terminal() != terminal {
			t.Errorf("%s.Terminal() = %v, want %v", state, !terminal, terminal)
		}
	}
}

// TestJobTimestampsOmitted asserts unset lifecycle timestamps stay off
// the wire rather than serializing zero times.
func TestJobTimestampsOmitted(t *testing.T) {
	data, err := json.Marshal(Job{ID: "j1", Kind: JobKindVerifyBatch, State: JobQueued})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"started_at", "finished_at", "error", "watermark", "verify_batch"} {
		if _, present := m[key]; present {
			t.Errorf("queued job serialized %q: %s", key, data)
		}
	}
}

// TestShardScanResponseBinary round-trips a reply through the binary
// form and checks the decoder's strictness: truncation anywhere, a
// trailing byte, and a tally count the input cannot hold all fail, and
// the encoding stays within MaxShardResponseLen.
func TestShardScanResponseBinary(t *testing.T) {
	resp := ShardScanResponse{Shard: -3, Rows: 5000, Tallies: []mark.TallyWire{
		{Rows: 5000, Fit: 70, UnknownValues: 2, Zeros: []int{9, 0}, Ones: []int{1, 300}, Last: []byte{0, 0xFF}},
		{Rows: 5000, Fit: 0, Zeros: []int{}, Ones: []int{}, Last: []byte{}},
	}}
	data, err := resp.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if max := MaxShardResponseLen([]int{2, 0}); int64(len(data)) > max {
		t.Fatalf("%d-byte reply over the %d-byte bound", len(data), max)
	}
	var back ShardScanResponse
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, resp) {
		t.Fatalf("round trip diverged:\n got  %+v\n want %+v", back, resp)
	}
	for n := range data {
		if err := back.UnmarshalBinary(data[:n]); err == nil {
			t.Fatalf("reply truncated to %d of %d bytes accepted", n, len(data))
		}
	}
	if err := back.UnmarshalBinary(append(bytes.Clone(data), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// shard 0, rows 0, then a count of 2^32 tallies in five bytes.
	if err := back.UnmarshalBinary([]byte{0, 0, 0x80, 0x80, 0x80, 0x80, 0x10}); err == nil {
		t.Fatal("tally count past the input accepted")
	}
	if _, err := (&ShardScanResponse{Rows: -1}).AppendBinary(nil); err == nil {
		t.Fatal("negative row count encoded")
	}
}
