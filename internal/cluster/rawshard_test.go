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
	"time"

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

// TestScanShardsRawSourceResplit drives the skim re-split path end to
// end on a JSONL source: a worker that fails every shard forces each
// one to be re-cut into two children, whose payloads must still be
// verbatim byte ranges and whose merged tallies must match the local
// scan.
func TestScanShardsRawSourceResplit(t *testing.T) {
	f := newAuditFixture(t, 3000, 2)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	want := f.localTallies(t, prep)
	_, jsonlData := rawFixtureData(t, f)

	c := NewCoordinator(Config{
		AutoShardRows:      true,
		ShardRows:          500,
		TargetShardLatency: 50 * time.Millisecond,
		MinShardRows:       50,
		MaxShardRows:       1000,
	})
	var mu sync.Mutex
	failedRows := map[int]int{}
	servedRows := map[int][]int{}
	jsonlRows := func(data string) int { return strings.Count(data, "\n") }

	bad := startTestWorker(t)
	bad.failWith = func(req api.ShardScanRequest) error {
		mu.Lock()
		failedRows[req.Shard] = jsonlRows(req.Data)
		mu.Unlock()
		return errors.New("synthetic shard failure")
	}
	bad.register(c, "bad", 1)
	good := startTestWorker(t)
	good.delay = func(req api.ShardScanRequest) {
		mu.Lock()
		servedRows[req.Shard] = append(servedRows[req.Shard], jsonlRows(req.Data))
		mu.Unlock()
	}
	good.register(c, "good", 1)

	got, err := c.ScanShards(context.Background(), rawSource(t, f, "jsonl", jsonlData), prep.Scanners(), ScanJob{
		Records: prep.Records(), Schema: f.spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("re-split raw-source cluster tallies diverged from local scan")
	}
	assertReportsEqualBothAggregations(t, f, got, want)

	mu.Lock()
	defer mu.Unlock()
	if len(failedRows) == 0 {
		t.Fatal("the failing worker never received a shard; the test proved nothing")
	}
	for idx, rows := range failedRows {
		if rows < 2*50 {
			continue // too small to split; retried whole
		}
		halves := servedRows[idx]
		if len(halves) != 2 {
			t.Fatalf("shard %d (%d rows) failed once but was served as %v requests, want 2 children",
				idx, rows, halves)
		}
		if halves[0]+halves[1] != rows {
			t.Fatalf("shard %d children rows %v do not partition the original %d", idx, halves, rows)
		}
	}
}

// TestSplitTaskRawSlices pins the format-aware re-split mechanics: for
// both formats the two children's payloads are verbatim byte ranges of
// the parent, skimmed without parsing — concatenating them (dropping the
// second child's repeated header) reproduces the parent payload exactly
// — and each child knows its first row in the stream.
func TestSplitTaskRawSlices(t *testing.T) {
	f := newAuditFixture(t, 101, 1)
	csvData, jsonlData := rawFixtureData(t, f)
	for _, tc := range []struct {
		format, data, header string
	}{
		{"csv", csvData, csvData[:strings.IndexByte(csvData, '\n')+1]},
		{"jsonl", jsonlData, ""},
	} {
		s := &scan{job: ScanJob{Schema: f.spec}, ctx: context.Background(), schema: f.schema, format: tc.format}
		task := &shardTask{
			idx: 7, data: tc.data, first: 300, rows: 101, attempts: 1,
			failed: map[string]bool{"w-dead": true},
		}
		children, err := s.splitTask(task)
		if err != nil {
			t.Fatal(err)
		}
		if len(children) != 2 || children[0].rows != 50 || children[1].rows != 51 {
			t.Fatalf("%s: children = %+v, want rows 50 + 51", tc.format, children)
		}
		for i, ch := range children {
			if ch.idx != 7 || ch.sub != i || !ch.child || ch.attempts != 1 || !ch.failed["w-dead"] ||
				ch.first != 300+50*i {
				t.Fatalf("%s child %d metadata wrong: %+v", tc.format, i, ch)
			}
		}
		second, ok := strings.CutPrefix(children[1].data, tc.header)
		if !ok {
			t.Fatalf("%s: second child payload lacks the header", tc.format)
		}
		if children[0].data+second != tc.data {
			t.Fatalf("%s: children are not verbatim byte ranges of the parent", tc.format)
		}
	}
}

// BenchmarkShardEncode measures the coordinator's shard-payload encoder:
// the legacy parse-then-reprint pipeline (row reader + row writer)
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
		var src relation.RowReader
		if format == "csv" {
			rr, err := relation.NewCSVRowReader(strings.NewReader(data), schema)
			if err != nil {
				b.Fatal(err)
			}
			src = rr
		} else {
			src = relation.NewJSONLRowReader(strings.NewReader(data), schema)
		}
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
			tup, err := src.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
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
