package cluster

import (
	"bufio"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relation"
)

// rawFixtureData serializes the fixture corpus in both wire formats.
func rawFixtureData(t testing.TB, f *auditFixture) (csvData, jsonlData string) {
	t.Helper()
	var jb strings.Builder
	if err := relation.WriteJSONL(&jb, f.rel); err != nil {
		t.Fatal(err)
	}
	return f.csv, jb.String()
}

// rawSource opens a zero-copy block reader over serialized fixture data.
func rawSource(t testing.TB, f *auditFixture, format, data string) relation.RawShardSource {
	t.Helper()
	if format == "jsonl" {
		return relation.NewJSONLBlockReader(strings.NewReader(data), f.schema)
	}
	br, err := relation.NewCSVBlockReader(strings.NewReader(data), f.schema)
	if err != nil {
		t.Fatal(err)
	}
	return br
}

// TestScanShardsRawSourceMatchesLocalScan is the shard cutter's
// equivalence and verbatim-slicing proof, per format: a distributed scan
// fed by a zero-copy block reader (a) produces tallies bit-identical to
// the local pass, (b) stamps every shard request with the source's own
// format, and (c) ships payloads that are verbatim slices of the input
// stream — reassembling the shards reproduces the input byte for byte,
// no parse-then-reprint anywhere.
func TestScanShardsRawSourceMatchesLocalScan(t *testing.T) {
	f := newAuditFixture(t, 4000, 3)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	want := f.localTallies(t, prep)
	csvData, jsonlData := rawFixtureData(t, f)

	for _, tc := range []struct {
		name, format, data, header string
		src                        relation.RawShardSource
		// rejoined is what the payloads reassemble to: a span source's
		// last payload ends with the last record, before the final newline.
		rejoined string
	}{
		{"csv", "csv", csvData, csvData[:strings.IndexByte(csvData, '\n')+1], rawSource(t, f, "csv", csvData), csvData},
		{"jsonl", "jsonl", jsonlData, "", rawSource(t, f, "jsonl", jsonlData), jsonlData},
		{"jsonl-payload", "jsonl", jsonlData, "", relation.NewJSONLPayloadReader(jsonlData, f.schema), strings.TrimSuffix(jsonlData, "\n")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCoordinator(Config{ShardRows: 256})
			var mu sync.Mutex
			payloads := map[int]string{}
			formats := map[string]bool{}
			record := func(req api.ShardScanRequest) {
				mu.Lock()
				payloads[req.Shard] = req.Data
				formats[req.Format] = true
				mu.Unlock()
			}
			for i := 0; i < 2; i++ {
				w := startTestWorker(t)
				w.delay = record
				w.register(c, fmt.Sprintf("w%d", i), 2)
			}

			got, err := c.ScanShards(context.Background(), tc.src, prep.Scanners(), ScanJob{
				Records: prep.Records(), Schema: f.spec,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s raw-source cluster tallies diverged from local scan", tc.format)
			}
			assertReportsEqualBothAggregations(t, f, got, want)

			mu.Lock()
			defer mu.Unlock()
			if len(formats) != 1 || !formats[tc.format] {
				t.Fatalf("shard requests carried formats %v, want only %q", formats, tc.format)
			}
			var rejoined strings.Builder
			rejoined.WriteString(tc.header)
			for idx := 0; idx < len(payloads); idx++ {
				body, ok := strings.CutPrefix(payloads[idx], tc.header)
				if !ok {
					t.Fatalf("shard %d payload does not start with the source header", idx)
				}
				rejoined.WriteString(body)
			}
			if rejoined.String() != tc.rejoined {
				t.Fatalf("%s shard payloads are not verbatim slices of the input", tc.format)
			}
		})
	}
}

// TestScanShardsRawSourceRetry drives whole-shard retries on a JSONL
// payload source: a worker that fails every shard it is handed forces
// each of those shards onto the healthy worker. Every retried payload
// must be byte-identical to its failed first attempt, the payloads must
// reassemble the input verbatim, and the merged tallies must match the
// local scan.
func TestScanShardsRawSourceRetry(t *testing.T) {
	f := newAuditFixture(t, 3000, 2)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	want := f.localTallies(t, prep)
	_, jsonlData := rawFixtureData(t, f)

	c := NewCoordinator(Config{ShardRows: 500})
	var mu sync.Mutex
	failed := map[int]string{} // shard idx -> payload of the failed attempt
	served := map[int]string{} // shard idx -> payload served OK

	bad := startTestWorker(t)
	bad.failWith = func(req api.ShardScanRequest) error {
		mu.Lock()
		failed[req.Shard] = req.Data
		mu.Unlock()
		return errors.New("synthetic shard failure")
	}
	bad.register(c, "bad", 1)
	good := startTestWorker(t)
	good.delay = func(req api.ShardScanRequest) {
		mu.Lock()
		if _, dup := served[req.Shard]; dup {
			t.Errorf("shard %d served twice", req.Shard)
		}
		served[req.Shard] = req.Data
		mu.Unlock()
	}
	good.register(c, "good", 1)

	got, err := c.ScanShards(context.Background(), relation.NewJSONLPayloadReader(jsonlData, f.schema), prep.Scanners(), ScanJob{
		Records: prep.Records(), Schema: f.spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("retried raw-source cluster tallies diverged from local scan")
	}
	assertReportsEqualBothAggregations(t, f, got, want)

	mu.Lock()
	defer mu.Unlock()
	if len(failed) == 0 {
		t.Fatal("the failing worker never received a shard; the test proved nothing")
	}
	for idx, payload := range failed {
		if served[idx] != payload {
			t.Fatalf("shard %d: retried payload differs from its first attempt", idx)
		}
	}
	var rejoined strings.Builder
	for idx := 0; idx < len(served); idx++ {
		rejoined.WriteString(served[idx])
	}
	if rejoined.String() != strings.TrimSuffix(jsonlData, "\n") {
		t.Fatal("shard payloads are not verbatim slices of the input")
	}
}

// BenchmarkShardEncode measures the coordinator's shard-payload encoder:
// the legacy parse-then-reprint pipeline (block reader + row writer)
// against the record skim that cuts shards without parsing a field, per
// wire format.
func BenchmarkShardEncode(b *testing.B) {
	r, _, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: 50000, CatalogSize: 120, ZipfS: 1.0, Seed: "shard-encode-bench",
	})
	if err != nil {
		b.Fatal(err)
	}
	schema := r.Schema()
	var cb, jb strings.Builder
	if err := relation.WriteCSV(&cb, r); err != nil {
		b.Fatal(err)
	}
	if err := relation.WriteJSONL(&jb, r); err != nil {
		b.Fatal(err)
	}
	csvData, jsonlData := cb.String(), jb.String()
	const shardRows = 4096

	reprint := func(b *testing.B, data, format string) {
		var out strings.Builder
		src := rawSource(b, &auditFixture{schema: schema}, format, data)
		blk := relation.NewBlock(schema)
		tup := make(relation.Tuple, schema.Arity())
		newWriter := func() *shardRowWriter {
			out.Reset()
			w, err := newShardRowWriter(&out, schema, format)
			if err != nil {
				b.Fatal(err)
			}
			return w
		}
		w := newWriter()
		rows := 0
		for {
			n, err := src.ReadBlock(blk, 512)
			for i := 0; i < n; i++ {
				for j := range tup {
					tup[j] = blk.Col(j).String(i)
				}
				if err := w.Write(tup); err != nil {
					b.Fatal(err)
				}
				if rows++; rows >= shardRows {
					if err := w.Flush(); err != nil {
						b.Fatal(err)
					}
					rows = 0
					w = newWriter()
				}
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	skim := func(b *testing.B, data, format string) {
		f := &auditFixture{schema: schema}
		src := rawSource(b, f, format, data)
		hdr := src.RawHeader()
		var buf []byte
		for {
			var err error
			if buf, _, err = src.SkimRecords(append(buf[:0], hdr...), shardRows); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}

	for _, tc := range []struct {
		name, data string
		run        func(b *testing.B, data, format string)
	}{
		{"csv/reprint", csvData, reprint},
		{"csv/skim", csvData, skim},
		{"jsonl/reprint", jsonlData, reprint},
		{"jsonl/skim", jsonlData, skim},
	} {
		format := strings.SplitN(tc.name, "/", 2)[0]
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(tc.data)))
			for i := 0; i < b.N; i++ {
				tc.run(b, tc.data, format)
			}
			b.ReportMetric(float64(r.Len())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// TestScanShardsBadRowsFailWithoutRetry pins the arbitration of a
// worker's invalid_argument reply: when the coordinator's own parse of
// the shard fails too, the rows are at fault, so the scan fails at once
// — no retry on another worker — with the shard's row range named.
func TestScanShardsBadRowsFailWithoutRetry(t *testing.T) {
	f := newAuditFixture(t, 300, 1)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	_, jsonlData := rawFixtureData(t, f)
	// Row 150 names a column the schema lacks: the skim passes it, the
	// worker's parse rejects it.
	lines := strings.SplitAfter(jsonlData, "\n")
	lines[149] = strings.Replace(lines[149], `"Item_Nbr"`, `"Wrong"`, 1)
	bad := strings.Join(lines, "")

	c := NewCoordinator(Config{ShardRows: 100})
	var mu sync.Mutex
	tries := map[int]int{}
	for i := 0; i < 2; i++ {
		w := startTestWorker(t)
		w.delay = func(req api.ShardScanRequest) {
			mu.Lock()
			tries[req.Shard]++
			mu.Unlock()
		}
		w.register(c, fmt.Sprintf("w%d", i), 1)
	}
	_, err := c.ScanShards(context.Background(), rawSource(t, f, "jsonl", bad), prep.Scanners(), ScanJob{
		Records: prep.Records(), Schema: f.spec,
	})
	if err == nil || !strings.HasPrefix(err.Error(), "suspect rows 101-200: ") ||
		!strings.Contains(err.Error(), `unknown column "Wrong"`) {
		t.Fatalf("err = %v, want the rejected shard's rows and the parse error", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if tries[1] != 1 {
		t.Fatalf("bad shard tried %d times, want 1 (no retry of bad rows)", tries[1])
	}
	if live := c.LiveWorkers(); live != 2 {
		t.Fatalf("bad rows cost a worker its lease: %d live", live)
	}
}

// shardRowWriter re-serializes tuples one at a time in a shard's wire
// format: the writer half of BenchmarkShardEncode's parse-then-reprint
// baseline.
type shardRowWriter struct {
	names []string
	cw    *csv.Writer   // csv format
	bw    *bufio.Writer // jsonl format
	enc   *json.Encoder
}

// newShardRowWriter starts a shard in format ("csv" writes the header
// row first).
func newShardRowWriter(w io.Writer, schema *relation.Schema, format string) (*shardRowWriter, error) {
	sw := &shardRowWriter{names: make([]string, schema.Arity())}
	for i := range sw.names {
		sw.names[i] = schema.Attr(i).Name
	}
	if format == "csv" {
		sw.cw = csv.NewWriter(w)
		return sw, sw.cw.Write(sw.names)
	}
	sw.bw = bufio.NewWriter(w)
	sw.enc = json.NewEncoder(sw.bw)
	return sw, nil
}

func (w *shardRowWriter) Write(t relation.Tuple) error {
	if w.cw != nil {
		return w.cw.Write(t)
	}
	obj := make(map[string]string, len(w.names))
	for i, name := range w.names {
		obj[name] = t[i]
	}
	return w.enc.Encode(obj)
}

func (w *shardRowWriter) Flush() error {
	if w.cw != nil {
		w.cw.Flush()
		return w.cw.Error()
	}
	return w.bw.Flush()
}
