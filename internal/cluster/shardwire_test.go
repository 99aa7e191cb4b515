package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/mark"
	"repro/internal/obs/trace"
)

// shardBody frames req the way client.ScanShard does: the header from
// api.ShardHeader, the certificate array, then the rows verbatim.
func shardBody(t testing.TB, req api.ShardScanRequest, records []byte) []byte {
	t.Helper()
	hdr, err := api.ShardHeader(req, len(records))
	if err != nil {
		t.Fatal(err)
	}
	return append(append(hdr, records...), req.Data...)
}

// FuzzReadShardRequest checks the framing split never loses or
// duplicates a byte. A framed body must come back as the same header,
// exactly its certificate array and exactly its rows (or be rejected
// when the array is empty); for an arbitrary body that parses, the
// certificate array and the rows must together be a suffix of the body
// whose complement is exactly one JSON value.
func FuzzReadShardRequest(f *testing.F) {
	f.Add(0, "Visit_Nbr:int!key, Item_Nbr:int:categorical", "csv", []byte(`[{"secret":"s"}]`), []byte("Visit_Nbr,Item_Nbr\n1,2\n"))
	f.Add(7, "k:string", "jsonl", []byte("[]"), []byte("{\"k\":\"\\ud83d\\ude00\"}\n"))
	f.Add(-1, "", "", []byte(nil), []byte("}{\"shard\":1}  \n"))
	f.Add(2, "a\"b", "csv", []byte("not json"), []byte(`{"shard":1,"data":"x"}`))
	f.Add(3, "", "", []byte(nil), []byte(`{"records_len":3}[1]rows`))
	f.Fuzz(func(t *testing.T, shard int, schema, format string, records, body []byte) {
		req := api.ShardScanRequest{Shard: shard, Schema: schema, Format: format, Data: string(body)}
		got, gotRecords, rd, err := ReadShardRequest(bytes.NewReader(shardBody(t, req, records)), 1<<20)
		if len(records) == 0 {
			if err == nil {
				t.Fatal("frame with an empty certificate array accepted")
			}
		} else {
			if err != nil {
				t.Fatalf("framed body rejected: %v", err)
			}
			rows, err := io.ReadAll(rd)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotRecords, records) || !bytes.Equal(rows, body) {
				t.Fatalf("records, rows = %q, %q, want %q, %q", gotRecords, rows, records, body)
			}
			// Compare against the header's own decoding: JSON replaces
			// invalid UTF-8, so the raw fuzz strings need not survive.
			hdr, err := api.ShardHeader(api.ShardScanRequest{Shard: shard, Schema: schema, Format: format}, len(records))
			if err != nil {
				t.Fatal(err)
			}
			var want api.ShardScanRequest
			if err := json.Unmarshal(hdr, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("header = %+v, want %+v", got, want)
			}
		}

		_, gotRecords, rd, err = ReadShardRequest(bytes.NewReader(body), int64(len(body)))
		if err != nil {
			return
		}
		rest, err := io.ReadAll(rd)
		if err != nil {
			t.Fatal(err)
		}
		tail := append(bytes.Clone(gotRecords), rest...)
		if !bytes.HasSuffix(body, tail) {
			t.Fatalf("records %q and rows %q are not a suffix of body %q", gotRecords, rest, body)
		}
		if hdr := body[:len(body)-len(tail)]; !json.Valid(hdr) {
			t.Fatalf("consumed header %q is not one JSON value", hdr)
		}
	})
}

// TestReadShardRequestLimit: a certificate array longer than the body
// limit is refused as the limit error before anything is allocated for
// it, and one longer than the body as a truncated frame.
func TestReadShardRequestLimit(t *testing.T) {
	body := []byte(`{"records_len":4096}[1]`)
	_, _, _, err := ReadShardRequest(bytes.NewReader(body), 1024)
	var maxErr *http.MaxBytesError
	if !errors.As(err, &maxErr) || maxErr.Limit != 1024 {
		t.Fatalf("err = %v, want a *http.MaxBytesError with limit 1024", err)
	}
	if _, _, _, err = ReadShardRequest(bytes.NewReader(body), 1<<20); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// shardFrames cuts the fixture's CSV into framed shard bodies of
// shardRows rows, every one carrying the same certificate array.
func (f *auditFixture) shardFrames(t testing.TB, records []byte, shardRows int) [][]byte {
	t.Helper()
	lines := strings.SplitAfter(f.csv, "\n")
	header, rows := lines[0], lines[1:len(lines)-1]
	var frames [][]byte
	for i := 0; i < len(rows); i += shardRows {
		data := header + strings.Join(rows[i:min(i+shardRows, len(rows))], "")
		req := api.ShardScanRequest{Shard: len(frames), Schema: f.spec, Data: data}
		frames = append(frames, shardBody(t, req, records))
	}
	return frames
}

func marshalRecords(t testing.TB, recs []*core.Record) []byte {
	t.Helper()
	data, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRecordSetCacheDecodesOnce: equal bytes decode once and share one
// read-only slice; a set differing in one byte of one secret misses the
// cache and scans to different tallies.
func TestRecordSetCacheDecodesOnce(t *testing.T) {
	f := newAuditFixture(t, 400, 2)
	records := marshalRecords(t, f.records)
	cache := NewRecordSetCache()
	first, cached, err := cache.Records(records)
	if err != nil || cached {
		t.Fatalf("first lookup: cached %v, err %v; want a miss", cached, err)
	}
	if !reflect.DeepEqual(first, f.records) {
		t.Fatal("decoded set differs from the encoded records")
	}
	again, cached, err := cache.Records(bytes.Clone(records))
	if err != nil || !cached || &again[0] != &first[0] {
		t.Fatalf("equal bytes: cached %v, err %v, shared %v; want the cached slice", cached, err, &again[0] == &first[0])
	}

	i := bytes.Index(records, []byte(`"secret":"owner-1"`))
	if i < 0 {
		t.Fatal("secret not found in the encoded set")
	}
	other := bytes.Clone(records)
	other[i+len(`"secret":"owner-`)] = '9'
	if _, cached, err := cache.Records(other); err != nil || cached {
		t.Fatalf("one-byte change: cached %v, err %v; want a miss", cached, err)
	}

	scan := func(records []byte) []mark.TallyWire {
		t.Helper()
		frame := f.shardFrames(t, records, 400)[0]
		resp, err := ExecuteShardFrame(context.Background(), bytes.NewReader(frame), 1<<30, cache, core.BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Tallies
	}
	a, b := scan(records), scan(other)
	if !reflect.DeepEqual(a[0], b[0]) {
		t.Fatal("the unchanged certificate scanned differently")
	}
	if reflect.DeepEqual(a[1], b[1]) {
		t.Fatal("a certificate with a changed secret scanned to identical tallies")
	}
}

// TestShardNegativeBlockRowsMeansDefault: a shard header carrying
// "block_rows": -1 — what a coordinator from a build that still had a
// tuple-at-a-time engine could forward — scans at the default block
// size, so its binary tallies are byte-identical to block_rows 0.
func TestShardNegativeBlockRowsMeansDefault(t *testing.T) {
	f := newAuditFixture(t, 1300, 3)
	records := marshalRecords(t, f.records)
	reply := func(blockRows int) []byte {
		t.Helper()
		req := api.ShardScanRequest{Schema: f.spec, Data: f.csv, BlockRows: blockRows}
		frame := shardBody(t, req, records)
		if blockRows != 0 && !bytes.Contains(frame, []byte(fmt.Sprintf(`"block_rows":%d`, blockRows))) {
			t.Fatalf("frame header lacks block_rows %d", blockRows)
		}
		resp, err := ExecuteShardFrame(context.Background(), bytes.NewReader(frame), 1<<30, NewRecordSetCache(), core.BatchOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		out, err := resp.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if want, got := reply(0), reply(-1); !bytes.Equal(got, want) {
		t.Fatal("block_rows -1 tallies differ from block_rows 0")
	}
}

// TestRecordSetCacheBound: the cache never holds more than
// RecordSetCacheEntries sets and evicts the least recently used.
func TestRecordSetCacheBound(t *testing.T) {
	cache := NewRecordSetCache()
	set := func(i int) []byte { return []byte(fmt.Sprintf(`[{"secret":"owner-%d"}]`, i)) }
	for i := 0; i < RecordSetCacheEntries+10; i++ {
		if _, _, err := cache.Records(set(i)); err != nil {
			t.Fatal(err)
		}
		if n := cache.lru.Len(); n != len(cache.entries) || n > RecordSetCacheEntries {
			t.Fatalf("after %d sets: %d cached, %d indexed, bound %d", i+1, n, len(cache.entries), RecordSetCacheEntries)
		}
	}
	if _, cached, _ := cache.Records(set(0)); cached {
		t.Fatal("the least recently used set survived past the bound")
	}
	if _, cached, _ := cache.Records(set(RecordSetCacheEntries + 9)); !cached {
		t.Fatal("the most recently used set was evicted")
	}
}

// TestRecordSetCacheConcurrentShards scans every shard of a corpus at
// once through one cache, all sharing one decoded set, and requires the
// merged tallies to equal a single pipeline.ScanMany pass (run it under
// -race: the shared set is read from every goroutine).
func TestRecordSetCacheConcurrentShards(t *testing.T) {
	f := newAuditFixture(t, 2000, 3)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	want := f.localTallies(t, prep)

	cache := NewRecordSetCache()
	frames := f.shardFrames(t, marshalRecords(t, prep.Records()), 150)
	resps := make([]*api.ShardScanResponse, len(frames))
	errs := make([]error, len(frames))
	var wg sync.WaitGroup
	for i, frame := range frames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = ExecuteShardFrame(context.Background(), bytes.NewReader(frame), 1<<30, cache, core.BatchOptions{Workers: 2})
		}()
	}
	wg.Wait()
	got := make([]*mark.Tally, len(want))
	for j, sc := range prep.Scanners() {
		got[j] = sc.NewTally()
	}
	for i, resp := range resps {
		if errs[i] != nil {
			t.Fatalf("shard %d: %v", i, errs[i])
		}
		for j, w := range resp.Tallies {
			part, err := w.Tally()
			if err != nil {
				t.Fatal(err)
			}
			got[j].Merge(part)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("concurrent shards over one cached set diverged from ScanMany")
	}
	if n := cache.lru.Len(); n != 1 {
		t.Fatalf("cache holds %d sets, want 1", n)
	}
}

// BenchmarkShardWire measures both directions of the shard RPC's fixed
// cost for a job of 4 certificates: the worker's frame split with a
// record-set cache hit against decoding the certificates from JSON, and
// the binary tally reply against the JSON one (encode plus decode).
func BenchmarkShardWire(b *testing.B) {
	f := newAuditFixture(b, 2000, 4)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	records := marshalRecords(b, prep.Records())
	frame := f.shardFrames(b, records, 2000)[0]
	hdrLen := len(frame) - len(f.csv)

	b.Run("request/cached", func(b *testing.B) {
		cache := NewRecordSetCache()
		b.SetBytes(int64(hdrLen))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, recs, _, err := ReadShardRequest(bytes.NewReader(frame), 1<<30)
			if err == nil {
				_, _, err = cache.Records(recs)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("request/json", func(b *testing.B) {
		b.SetBytes(int64(hdrLen))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, recs, _, err := ReadShardRequest(bytes.NewReader(frame), 1<<30)
			if err == nil {
				var decoded []*core.Record
				err = json.Unmarshal(recs, &decoded)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})

	resp, err := ExecuteShard(context.Background(), api.ShardScanRequest{Schema: f.spec, Data: f.csv, Records: prep.Records()}, core.BatchOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reply/binary", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			var out api.ShardScanResponse
			if buf, err = resp.AppendBinary(buf[:0]); err == nil {
				err = out.UnmarshalBinary(buf)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(buf)), "reply_bytes")
	})
	b.Run("reply/json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		var n int
		for i := 0; i < b.N; i++ {
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			var out api.ShardScanResponse
			if err := enc.Encode(resp); err != nil {
				b.Fatal(err)
			}
			n = buf.Len()
			if err := json.NewDecoder(&buf).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n), "reply_bytes")
	})
}

// TestExecuteShardFrameSpan: the shard.execute span says whether the
// shard paid the certificate decode (records_cached) and how large the
// array was (records_bytes).
func TestExecuteShardFrameSpan(t *testing.T) {
	f := newAuditFixture(t, 300, 1)
	records := marshalRecords(t, f.records)
	frames := f.shardFrames(t, records, 150)
	rec := trace.New(trace.Options{SampleRatio: 1})
	ctx, root := rec.StartServer(context.Background(), "test", "")
	cache := NewRecordSetCache()
	for _, frame := range frames {
		if _, err := ExecuteShardFrame(ctx, bytes.NewReader(frame), 1<<30, cache, core.BatchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	root.End()
	var cached []string
	for _, sd := range rec.TraceSpans(root.Context().TraceID) {
		if sd.Name != "shard.execute" {
			continue
		}
		attrs := map[string]string{}
		for _, a := range sd.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["records_bytes"] != fmt.Sprint(len(records)) {
			t.Fatalf("records_bytes = %q, want %d", attrs["records_bytes"], len(records))
		}
		cached = append(cached, attrs["records_cached"])
	}
	if !reflect.DeepEqual(cached, []string{"false", "true"}) {
		t.Fatalf("records_cached over two shards = %v, want [false true]", cached)
	}
}
