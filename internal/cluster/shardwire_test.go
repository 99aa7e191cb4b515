package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"repro/internal/api"
)

// shardBody frames req the way client.ScanShard does: the JSON header
// with Data cleared, then the rows verbatim.
func shardBody(t testing.TB, req api.ShardScanRequest) []byte {
	t.Helper()
	rows := req.Data
	req.Data = ""
	hdr, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return append(hdr, rows...)
}

// FuzzReadShardRequest checks the framing split never loses or
// duplicates a byte. A framed body must come back as the same header and
// exactly its rows; for an arbitrary body that parses, the rows reader
// must yield a suffix of the body whose complement is exactly one JSON
// value.
func FuzzReadShardRequest(f *testing.F) {
	f.Add(0, "Visit_Nbr:int!key, Item_Nbr:int:categorical", "csv", []byte("Visit_Nbr,Item_Nbr\n1,2\n"))
	f.Add(7, "k:string", "jsonl", []byte("{\"k\":\"\\ud83d\\ude00\"}\n"))
	f.Add(-1, "", "", []byte("}{\"shard\":1}  \n"))
	f.Add(2, "a\"b", "csv", []byte(`{"shard":1,"data":"x"}`))
	f.Fuzz(func(t *testing.T, shard int, schema, format string, body []byte) {
		req := api.ShardScanRequest{Shard: shard, Schema: schema, Format: format, Data: string(body)}
		got, rd, err := ReadShardRequest(bytes.NewReader(shardBody(t, req)))
		if err != nil {
			t.Fatalf("framed body rejected: %v", err)
		}
		rows, err := io.ReadAll(rd)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rows, body) {
			t.Fatalf("rows = %q, want %q", rows, body)
		}
		// Compare against the header's own decoding: JSON replaces
		// invalid UTF-8, so the raw fuzz strings need not survive.
		var want api.ShardScanRequest
		if err := json.Unmarshal(shardBody(t, api.ShardScanRequest{Shard: shard, Schema: schema, Format: format}), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("header = %+v, want %+v", got, want)
		}

		_, rd, err = ReadShardRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		rest, err := io.ReadAll(rd)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(body, rest) {
			t.Fatalf("rows %q are not a suffix of body %q", rest, body)
		}
		if hdr := body[:len(body)-len(rest)]; !json.Valid(hdr) {
			t.Fatalf("consumed header %q is not one JSON value", hdr)
		}
	})
}
