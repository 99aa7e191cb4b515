package relation

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// The zero-copy block readers must be bit-identical to the legacy
// stdlib-backed row readers — the legacy readers are the oracle. Every
// comparison here demands: identical rows up to the first error, and
// agreement on whether an error occurs (messages may differ).

func drainRows(rr RowReader) ([][]string, error) {
	var rows [][]string
	for {
		t, err := rr.Read()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, err
		}
		rows = append(rows, []string(t))
	}
}

func drainBlockRows(t *testing.T, br BlockReader, maxRows int) ([][]string, error) {
	t.Helper()
	b := NewBlock(br.Schema())
	var rows [][]string
	for {
		n, err := br.ReadBlock(b, maxRows)
		if err == io.EOF && n != 0 {
			t.Fatalf("ReadBlock returned %d rows together with io.EOF", n)
		}
		for i := 0; i < n; i++ {
			row := make([]string, len(b.cols))
			for c := range b.cols {
				row[c] = b.cols[c].String(i)
			}
			rows = append(rows, row)
		}
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, err
		}
		if n == 0 {
			t.Fatal("ReadBlock returned (0, nil)")
		}
	}
}

func sameRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func compareCSVWithOracle(t *testing.T, in string, blockRows int) {
	t.Helper()
	schema := rowioSchema(t)
	rr, lerr := NewCSVRowReader(strings.NewReader(in), schema)
	br, berr := NewCSVBlockReader(strings.NewReader(in), schema)
	if (lerr != nil) != (berr != nil) {
		t.Fatalf("header disagreement on %q: legacy %v, block %v", in, lerr, berr)
	}
	if lerr != nil {
		return
	}
	want, wantErr := drainRows(rr)
	got, gotErr := drainBlockRows(t, br, blockRows)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("error disagreement on %q: legacy %v, block %v", in, wantErr, gotErr)
	}
	if !sameRows(want, got) {
		t.Fatalf("row disagreement on %q:\nlegacy: %q\nblock:  %q", in, want, got)
	}
}

func compareJSONLWithOracle(t *testing.T, in string, blockRows int) {
	t.Helper()
	schema := rowioSchema(t)
	want, wantErr := drainRows(NewJSONLRowReader(strings.NewReader(in), schema))
	got, gotErr := drainBlockRows(t, NewJSONLBlockReader(strings.NewReader(in), schema), blockRows)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("error disagreement on %q: legacy %v, block %v", in, wantErr, gotErr)
	}
	if !sameRows(want, got) {
		t.Fatalf("row disagreement on %q:\nlegacy: %q\nblock:  %q", in, want, got)
	}
	// The payload reader parses its input in place: same rows, same
	// error, and the input left untouched.
	orig := strings.Clone(in)
	pay, payErr := drainBlockRows(t, NewJSONLPayloadReader(in, schema), blockRows)
	if fmt.Sprint(payErr) != fmt.Sprint(gotErr) || !sameRows(got, pay) {
		t.Fatalf("payload reader disagrees on %q:\nblock:   %q, %v\npayload: %q, %v", in, got, gotErr, pay, payErr)
	}
	if in != orig {
		t.Fatalf("payload reader wrote to its input: %q, was %q", in, orig)
	}
}

var csvOracleCases = []string{
	"Visit_Nbr,Item_Nbr\n1,10\n2,11\n",
	"Item_Nbr,Visit_Nbr\n10,1\n11,2\n", // reordered columns
	"Visit_Nbr,Item_Nbr\r\n1,10\r\n2,11\r\n",
	"Visit_Nbr,Item_Nbr\n1,10",                 // no trailing newline
	"Visit_Nbr,Item_Nbr\n1,10\r",               // trailing \r at EOF
	"Visit_Nbr,Item_Nbr\n\n1,10\n\r\n2,11\n\n", // blank lines
	"Visit_Nbr,Item_Nbr\n\"1\",\"a,b\"\n",
	"Visit_Nbr,Item_Nbr\n1,\"a\"\"b\"\n",
	"Visit_Nbr,Item_Nbr\n1,\"multi\nline\"\n2,x\n",
	"Visit_Nbr,Item_Nbr\n1,\"multi\r\nline\"\n",
	"Visit_Nbr,Item_Nbr\n1,\"\"\n",
	"Visit_Nbr,Item_Nbr\n,\n",
	"\"Visit_Nbr\",\"Item_Nbr\"\n1,10\n",   // quoted header
	"Visit_Nbr,Item_Nbr\n1,a\rb\n",         // interior \r
	"Visit_Nbr,Item_Nbr\n1,a\r\r\n",        // \r\r\n tail
	"Visit_Nbr,Item_Nbr\n1\n",              // short row
	"Visit_Nbr,Item_Nbr\n1,2,3\n4,5\n",     // long row
	"Visit_Nbr,Item_Nbr\n\"1,2\n",          // unterminated quote
	"Visit_Nbr,Item_Nbr\n1,\"a\"b\n",       // stray quote after close
	"Visit_Nbr,Item_Nbr\n1,a\"b\n",         // bare quote
	"Visit_Nbr,Item_Nbr\n1,10\n2\n3,12\n",  // error mid-stream after good rows
	"Visit_Nbr,Item_Nbr\n1,\"a\n\n\nb\"\n", // blank lines inside quotes
	"Visit_Nbr,Item_Nbr",
	"Visit_Nbr,Item_Nbr\n",
	"",
	"\r",
	"Wrong,Item_Nbr\n1,2\n",
	"Visit_Nbr\n1\n",
	"Visit_Nbr,Item_Nbr\r\n1,\r\n", // empty last field before \r\n
	"\xff\xfe",
}

func TestCSVBlockReaderMatchesLegacy(t *testing.T) {
	for _, in := range csvOracleCases {
		for _, blockRows := range []int{1, 2, 512} {
			compareCSVWithOracle(t, in, blockRows)
		}
	}
}

var jsonlOracleCases = []string{
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"10\"}\n{\"Visit_Nbr\":\"2\",\"Item_Nbr\":\"11\"}\n",
	"{\"Item_Nbr\":\"10\",\"Visit_Nbr\":\"1\"}\n", // reordered keys
	// key order changing from record to record, duplicates included
	"{\"Item_Nbr\":\"1\",\"Visit_Nbr\":\"2\"}\n{\"Visit_Nbr\":\"3\",\"Item_Nbr\":\"4\"}\n{\"Item_Nbr\":\"5\",\"Visit_Nbr\":\"6\",\"Item_Nbr\":\"7\"}\n{\"Visit_Nbr\":\"8\",\"Visit_Nbr\":\"9\",\"Item_Nbr\":\"0\"}\n",
	"  {\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"10\"}  ",
	"{\n  \"Visit_Nbr\": \"1\",\n  \"Item_Nbr\": \"10\"\n}\n", // pretty-printed
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"10\"}{\"Visit_Nbr\":\"2\",\"Item_Nbr\":\"11\"}",
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":null}\n",                      // null -> ""
	"{\"Visit_Nbr\":\"1\",\"Visit_Nbr\":\"2\",\"Item_Nbr\":\"x\"}\n", // dup key, last wins
	"{\"Visit_Nbr\":\"a\\\"b\",\"Item_Nbr\":\"\\u0041\\n\\t\"}\n",    // escapes
	"{\"Visit_Nbr\":\"\\ud83d\\ude00\",\"Item_Nbr\":\"x\"}\n",        // surrogate pair
	"{\"Visit_Nbr\":\"\\ud800\",\"Item_Nbr\":\"x\"}\n",               // lone surrogate
	"{\"Visit_Nbr\":\"\\ud800\\ud800\",\"Item_Nbr\":\"x\"}\n",        // surrogate + surrogate
	"{\"Visit_Nbr\":\"\xff\xfe\",\"Item_Nbr\":\"x\"}\n",              // invalid UTF-8
	"{\"\\u0056isit_Nbr\":\"1\",\"Item_Nbr\":\"2\"}\n",               // escaped key
	"{\"Visit_Nbr\":\"1\"}\n",                                        // missing key
	"{\"Visit_Nbr\":\"1\",\"Wrong\":\"2\"}\n",                        // unknown key
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":2}\n",                         // number value
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":true}\n",                      // bool value
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":[\"x\"]}\n",                   // array value
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":{\"a\":1}}\n",                 // object value
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"2\",}\n",                    // trailing comma
	"{}",
	"null\n",
	"not json\n",
	"[\"x\"]\n",
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"2\"",         // truncated
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"2\"}garbage", // good row then garbage
	"{\"Visit_Nbr\":\"a\tb\",\"Item_Nbr\":\"x\"}\n",   // raw control char
	"",
	"   \n\t ",
	"{\"Visit_Nbr\":\"\\u0000\",\"Item_Nbr\":\"x\"}", // escaped NUL, no newline
	"\x00{",
}

func TestJSONLBlockReaderMatchesLegacy(t *testing.T) {
	for _, in := range jsonlOracleCases {
		for _, blockRows := range []int{1, 2, 512} {
			compareJSONLWithOracle(t, in, blockRows)
		}
	}
}

func FuzzCSVBlockReader(f *testing.F) {
	for _, in := range csvOracleCases {
		f.Add(in, uint8(3))
	}
	for _, in := range csvMaterializeCases {
		f.Add(in, uint8(3))
	}
	f.Fuzz(func(t *testing.T, in string, blockRows uint8) {
		compareCSVWithOracle(t, in, int(blockRows%8)+1)
		compareMaterialized(t, "csv", in)
	})
}

func FuzzJSONLBlockReader(f *testing.F) {
	for _, in := range jsonlOracleCases {
		f.Add(in, uint8(3))
	}
	for _, in := range jsonlMaterializeCases {
		f.Add(in, uint8(3))
	}
	f.Fuzz(func(t *testing.T, in string, blockRows uint8) {
		compareJSONLWithOracle(t, in, int(blockRows%8)+1)
		compareMaterialized(t, "jsonl", in)
	})
}

// skimShards cuts src into shard payloads of up to maxRows records
// each — the source header plus the skimmed record bytes, exactly as the
// cluster coordinator cuts them — and returns them with their record
// counts and the skim's terminal error, if any.
func skimShards(src RawShardSource, maxRows int) (payloads []string, counts []int, err error) {
	for {
		buf := append([]byte(nil), src.RawHeader()...)
		buf, n, err := src.SkimRecords(buf, maxRows)
		if n > 0 {
			payloads = append(payloads, string(buf))
			counts = append(counts, n)
		}
		if err == io.EOF {
			return payloads, counts, nil
		}
		if err != nil {
			return payloads, counts, err
		}
	}
}

// skimSpans is skimShards through SkimSpan: each payload is the
// substring of the input the span covers.
func skimSpans(src *JSONLPayloadReader, maxRows int) (payloads []string, counts []int, err error) {
	for {
		span, n, err := src.SkimSpan(maxRows)
		if n > 0 {
			payloads = append(payloads, span)
			counts = append(counts, n)
		}
		if err == io.EOF {
			return payloads, counts, nil
		}
		if err != nil {
			return payloads, counts, err
		}
	}
}

// checkSkim is the skim's differential oracle against the block parser
// on one input, for every shard size 1..8: input the parser accepts
// must skim without error into shards that re-parse to exactly the
// parser's rows, shard by shard with the skim's counts; and input the
// parser rejects must never come out as a clean skim whose shards all
// parse.
func checkSkim(t *testing.T, format, in string) {
	t.Helper()
	schema := rowioSchema(t)
	open := func(in string) (RawShardSource, error) {
		if format == "csv" {
			return NewCSVBlockReader(strings.NewReader(in), schema)
		}
		return NewJSONLBlockReader(strings.NewReader(in), schema), nil
	}
	br, err := open(in)
	if err != nil {
		return // the header is parsed, not skimmed: nothing to cut
	}
	want, wantErr := drainBlockRows(t, br, 512)
	for maxRows := 1; maxRows <= 8; maxRows++ {
		src, err := open(in)
		if err != nil {
			t.Fatalf("%s %q: reopen: %v", format, in, err)
		}
		payloads, counts, skimErr := skimShards(src, maxRows)
		if format == "jsonl" {
			checkSpans(t, in, maxRows, counts, skimErr)
		}
		if wantErr == nil && skimErr != nil {
			t.Fatalf("%s %q: parser accepts, skim rejects: %v", format, in, skimErr)
		}
		var got [][]string
		var shardErr error
		for i, p := range payloads {
			sb, err := open(p)
			if err != nil {
				shardErr = err
				break
			}
			rows, err := drainBlockRows(t, sb, 512)
			if err != nil {
				shardErr = err
				break
			}
			if len(rows) != counts[i] {
				t.Fatalf("%s %q maxRows %d: shard %d parses to %d rows, skim counted %d\npayload %q",
					format, in, maxRows, i, len(rows), counts[i], p)
			}
			got = append(got, rows...)
		}
		if wantErr != nil {
			if skimErr == nil && shardErr == nil {
				t.Fatalf("%s %q maxRows %d: parser rejects (%v) but every skimmed shard parses\nshards %q",
					format, in, maxRows, wantErr, payloads)
			}
			continue
		}
		if shardErr != nil {
			t.Fatalf("%s %q maxRows %d: parser accepts, a skimmed shard fails: %v\nshards %q",
				format, in, maxRows, shardErr, payloads)
		}
		if !sameRows(want, got) {
			t.Fatalf("%s %q maxRows %d: skimmed shards re-parse differently:\nwant %q\ngot  %q",
				format, in, maxRows, want, got)
		}
	}
}

// checkSpans holds SkimSpan to the skim of the same input: the same
// record counts and error, and spans lying back to back in the input
// that hold exactly the skimmed records and the whitespace between
// them.
func checkSpans(t *testing.T, in string, maxRows int, wantCounts []int, wantErr error) {
	t.Helper()
	schema := rowioSchema(t)
	spans, counts, err := skimSpans(NewJSONLPayloadReader(in, schema), maxRows)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(counts, wantCounts) {
		t.Fatalf("jsonl %q maxRows %d: SkimSpan gave counts %v, %v; SkimRecords %v, %v",
			in, maxRows, counts, err, wantCounts, wantErr)
	}
	off := 0
	for i, span := range spans {
		if !strings.HasPrefix(in[off:], span) || len(span) > 0 && unsafe.StringData(span) != unsafe.StringData(in[off:]) {
			t.Fatalf("jsonl %q maxRows %d: span %d %q is not the input at %d", in, maxRows, i, span, off)
		}
		off += len(span)
		skimmed, n, err := NewJSONLBlockReader(strings.NewReader(span), schema).SkimRecords(nil, maxRows)
		if n != counts[i] || err != nil {
			t.Fatalf("jsonl %q maxRows %d: span %d %q re-skims to %d records, %v", in, maxRows, i, span, n, err)
		}
		if strings.Join(strings.Fields(span), "") != strings.Join(strings.Fields(string(skimmed)), "") {
			t.Fatalf("jsonl %q maxRows %d: span %d %q holds more than its records %q", in, maxRows, i, span, skimmed)
		}
	}
}

func TestSkimMatchesParser(t *testing.T) {
	for _, in := range csvOracleCases {
		checkSkim(t, "csv", in)
	}
	for _, in := range jsonlOracleCases {
		checkSkim(t, "jsonl", in)
	}
}

func FuzzSkimCSV(f *testing.F) {
	for _, in := range csvOracleCases {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) { checkSkim(t, "csv", in) })
}

func FuzzSkimJSONL(f *testing.F) {
	for _, in := range jsonlOracleCases {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) { checkSkim(t, "jsonl", in) })
}

// TestCSVBlockReaderRawSpans checks the skimmed record bytes: header
// plus skimmed records must re-parse to the identical row stream, and
// for input with no blank lines they are the input itself.
func TestCSVBlockReaderRawSpans(t *testing.T) {
	schema := rowioSchema(t)
	in := "Visit_Nbr,Item_Nbr\r\n1,10\r\n\n\"2\",\"a\"\"b\"\n3,\"multi\nline\"\n4,40"
	br, err := NewCSVBlockReader(strings.NewReader(in), schema)
	if err != nil {
		t.Fatal(err)
	}
	want, err := drainBlockRows(t, br, 512)
	if err != nil {
		t.Fatal(err)
	}
	if br, err = NewCSVBlockReader(strings.NewReader(in), schema); err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), br.RawHeader()...)
	for {
		var err error
		if payload, _, err = br.SkimRecords(payload, 2); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	rr, err := NewCSVRowReader(strings.NewReader(string(payload)), schema)
	if err != nil {
		t.Fatalf("skimmed payload header: %v\npayload: %q", err, payload)
	}
	got, err := drainRows(rr)
	if err != nil {
		t.Fatalf("skimmed payload re-parse: %v\npayload: %q", err, payload)
	}
	if !sameRows(want, got) {
		t.Fatalf("skimmed payload rows differ:\nwant %q\ngot  %q", want, got)
	}

	// Without blank lines the skimmed records are exactly the input bytes.
	in2 := "Visit_Nbr,Item_Nbr\n1,10\n2,\"a,b\"\n"
	br2, err := NewCSVBlockReader(strings.NewReader(in2), schema)
	if err != nil {
		t.Fatal(err)
	}
	exact, n, err := br2.SkimRecords(append([]byte(nil), br2.RawHeader()...), 512)
	if err != nil || n != 2 {
		t.Fatalf("SkimRecords = %d records, %v; want 2, nil", n, err)
	}
	if string(exact) != in2 {
		t.Fatalf("skimmed records not byte-identical to input:\nin  %q\nout %q", in2, exact)
	}
	if _, n, err := br2.SkimRecords(nil, 512); n != 0 || err != io.EOF {
		t.Fatalf("SkimRecords at end = %d records, %v; want 0, io.EOF", n, err)
	}
}

// TestJSONLBlockReaderRawSpans: skimmed objects (one per line) must
// re-parse to the identical row stream.
func TestJSONLBlockReaderRawSpans(t *testing.T) {
	schema := rowioSchema(t)
	in := "{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"a\\\"b}\"}   \n\n  {\"Item_Nbr\":\"11\",\"Visit_Nbr\":\"2\"}"
	want, err := drainBlockRows(t, NewJSONLBlockReader(strings.NewReader(in), schema), 512)
	if err != nil {
		t.Fatal(err)
	}
	br := NewJSONLBlockReader(strings.NewReader(in), schema)
	if br.RawHeader() != nil {
		t.Fatal("JSONL RawHeader should be nil")
	}
	var payload []byte
	for {
		var err error
		if payload, _, err = br.SkimRecords(payload, 1); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	wantPayload := "{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"a\\\"b}\"}\n{\"Item_Nbr\":\"11\",\"Visit_Nbr\":\"2\"}\n"
	if string(payload) != wantPayload {
		t.Fatalf("skimmed payload:\n got %q\nwant %q", payload, wantPayload)
	}
	got, err := drainRows(NewJSONLRowReader(strings.NewReader(string(payload)), schema))
	if err != nil {
		t.Fatalf("skimmed payload re-parse: %v\npayload: %q", err, payload)
	}
	if !sameRows(want, got) {
		t.Fatalf("skimmed payload rows differ:\nwant %q\ngot  %q", want, got)
	}
}

// TestSkimStructuralErrors pins the errors the skim itself raises — a
// record that cannot be delimited — at their row, with the records
// before it handed out and the error sticky.
func TestSkimStructuralErrors(t *testing.T) {
	schema := rowioSchema(t)
	for _, tc := range []struct {
		format, in, msg string
	}{
		{"jsonl", "{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"2\"}\ngarbage\n", "row 2: invalid character 'g'"},
		{"jsonl", "{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"2\"}\n{\"Visit_Nbr\":\"1", "row 2: unexpected end of JSON input"},
		{"jsonl", "{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"2\"}\n{\"Visit_Nbr\":\"}\n", "row 2: unexpected end of JSON input"},
		{"csv", "Visit_Nbr,Item_Nbr\n1,2\n3,\"4\n", "row 2: parse error: unterminated quoted field"},
		{"csv", "Visit_Nbr,Item_Nbr\n1,2\n3,\"4", "row 2: parse error: unterminated quoted field"},
	} {
		var src RawShardSource = NewJSONLBlockReader(strings.NewReader(tc.in), schema)
		if tc.format == "csv" {
			var err error
			if src, err = NewCSVBlockReader(strings.NewReader(tc.in), schema); err != nil {
				t.Fatal(err)
			}
		}
		out, n, err := src.SkimRecords(nil, 8)
		if n != 1 || err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Fatalf("%s %q: SkimRecords = %d records, %v; want 1 and an error containing %q",
				tc.format, tc.in, n, err, tc.msg)
		}
		if strings.Count(string(out), "\n") != 1 {
			t.Fatalf("%s %q: skimmed bytes %q should hold exactly the first record", tc.format, tc.in, out)
		}
		if _, n, again := src.SkimRecords(nil, 8); n != 0 || again != err {
			t.Fatalf("%s %q: error not sticky: %d records, %v", tc.format, tc.in, n, again)
		}
		if tc.format != "jsonl" {
			continue
		}
		pr := NewJSONLPayloadReader(tc.in, schema)
		span, n, err := pr.SkimSpan(8)
		if n != 1 || err == nil || !strings.Contains(err.Error(), tc.msg) || span != strings.TrimSuffix(string(out), "\n") {
			t.Fatalf("%s %q: SkimSpan = %q, %d records, %v; want the first record and an error containing %q",
				tc.format, tc.in, span, n, err, tc.msg)
		}
		if _, n, again := pr.SkimSpan(8); n != 0 || again != err {
			t.Fatalf("%s %q: SkimSpan error not sticky: %d records, %v", tc.format, tc.in, n, again)
		}
	}
}

func TestBlockPoolAndGen(t *testing.T) {
	schema := rowioSchema(t)
	b := GetBlock(schema)
	g := b.Gen()
	if err := b.AppendTuple(Tuple{"1", "10"}); err != nil {
		t.Fatal(err)
	}
	if b.Rows() != 1 || b.Col(0).String(0) != "1" || string(b.Col(1).Value(0)) != "10" {
		t.Fatalf("block contents wrong: %d rows", b.Rows())
	}
	b.Reset(schema)
	if b.Gen() == g {
		t.Fatal("Reset did not advance generation")
	}
	if b.Rows() != 0 || b.Col(0).Rows() != 0 {
		t.Fatal("Reset did not empty block")
	}
	PutBlock(b)
}

// TestFillBlockMatchesAppendTuple: a block filled from a relation range
// holds exactly the rows AppendTuple would put there, for every range
// shape (empty, size 1, ragged tail) and every column list (all, one,
// some), unlisted columns left empty; a refill into the same block
// advances its generation and drops the previous rows and columns.
func TestFillBlockMatchesAppendTuple(t *testing.T) {
	schema := MustSchema([]Attribute{
		{Name: "a", Type: TypeString}, {Name: "k", Type: TypeInt},
		{Name: "b", Type: TypeString}, {Name: "v", Type: TypeString},
	}, "k")
	r := New(schema)
	for i := 0; i < 300; i++ {
		r.MustAppend(Tuple{"a" + fmt.Sprint(i%3), fmt.Sprint(i), "b", strings.Repeat("v", i%5)}) // "" values too
	}
	blk := GetBlock(schema)
	defer PutBlock(blk)
	for _, rg := range [][2]int{{0, 0}, {0, 1}, {7, 8}, {0, 300}, {299, 300}, {10, 123}} {
		for _, cols := range [][]int{nil, {3}, {1, 3}, {2, 0}} {
			g := blk.Gen()
			r.FillBlock(blk, rg[0], rg[1], cols...)
			if blk.Gen() == g {
				t.Fatalf("range %v: FillBlock did not advance the generation", rg)
			}
			want := NewBlock(schema)
			for j := rg[0]; j < rg[1]; j++ {
				if err := want.AppendTuple(r.Tuple(j), cols...); err != nil {
					t.Fatal(err)
				}
			}
			if blk.Rows() != want.Rows() {
				t.Fatalf("range %v cols %v: %d rows, want %d", rg, cols, blk.Rows(), want.Rows())
			}
			for c := 0; c < schema.Arity(); c++ {
				gotData, gotOffs := blk.Col(c).Raw()
				wantData, wantOffs := want.Col(c).Raw()
				if string(gotData) != string(wantData) || !slices.Equal(gotOffs, wantOffs) {
					t.Fatalf("range %v cols %v column %d: arena or offsets differ", rg, cols, c)
				}
				if listed := cols == nil || slices.Contains(cols, c); !listed && blk.Col(c).Rows() != 0 {
					t.Fatalf("range %v cols %v: unlisted column %d holds %d rows", rg, cols, c, blk.Col(c).Rows())
				}
			}
		}
	}
}

// TestRelationReaderBlocks: the block view of Rows(r) yields every row
// once, in order, at any batch size, then (0, io.EOF).
func TestRelationReaderBlocks(t *testing.T) {
	r := New(rowioSchema(t))
	var want [][]string
	for i := 0; i < 1100; i++ {
		tup := Tuple{fmt.Sprint(i), fmt.Sprint(10 + i%7)}
		r.MustAppend(tup)
		want = append(want, tup)
	}
	for _, maxRows := range []int{0, 1, 3, 512, 5000} {
		got, err := drainBlockRows(t, Rows(r), maxRows)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(got, want) {
			t.Fatalf("maxRows %d: block view diverged from the relation", maxRows)
		}
	}
}

// TestBlockReadAllocsCSV pins the warm block-read path at zero
// allocations per block (hence per row) — the tentpole invariant.
func TestBlockReadAllocsCSV(t *testing.T) {
	schema := rowioSchema(t)
	var sb strings.Builder
	sb.WriteString("Visit_Nbr,Item_Nbr\n")
	for i := 0; i < 6000; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, 10+i%97)
	}
	br, err := NewCSVBlockReader(strings.NewReader(sb.String()), schema)
	if err != nil {
		t.Fatal(err)
	}
	blk := NewBlock(schema)
	for i := 0; i < 4; i++ { // warm arenas
		if _, err := br.ReadBlock(blk, 32); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		n, err := br.ReadBlock(blk, 32)
		if err != nil || n == 0 {
			t.Fatalf("ReadBlock: n=%d err=%v", n, err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm CSV ReadBlock allocates: %v allocs/block", avg)
	}
}

// TestBlockReadAllocsJSONL is the JSONL counterpart.
func TestBlockReadAllocsJSONL(t *testing.T) {
	schema := rowioSchema(t)
	var sb strings.Builder
	for i := 0; i < 6000; i++ {
		fmt.Fprintf(&sb, "{\"Visit_Nbr\":\"%d\",\"Item_Nbr\":\"%d\"}\n", i, 10+i%97)
	}
	br := NewJSONLBlockReader(strings.NewReader(sb.String()), schema)
	blk := NewBlock(schema)
	for i := 0; i < 4; i++ {
		if _, err := br.ReadBlock(blk, 32); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		n, err := br.ReadBlock(blk, 32)
		if err != nil || n == 0 {
			t.Fatalf("ReadBlock: n=%d err=%v", n, err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm JSONL ReadBlock allocates: %v allocs/block", avg)
	}
}

// BenchmarkRowReader compares the stdlib-backed row readers against the
// zero-copy block readers over identical inputs.
func BenchmarkRowReader(b *testing.B) {
	schema := rowioSchema(b)
	const rows = 4096
	var plain, quoted, jsonl strings.Builder
	plain.WriteString("Visit_Nbr,Item_Nbr\n")
	quoted.WriteString("Visit_Nbr,Item_Nbr\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&plain, "%d,%d\n", i, 10+i%97)
		fmt.Fprintf(&quoted, "\"%d\",\"it\"\"em,%d\"\n", i, 10+i%97)
		fmt.Fprintf(&jsonl, "{\"Visit_Nbr\":\"%d\",\"Item_Nbr\":\"%d\"}\n", i, 10+i%97)
	}

	legacy := func(in string, mk func(string) (RowReader, error)) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(in)))
			for i := 0; i < b.N; i++ {
				rr, err := mk(in)
				if err != nil {
					b.Fatal(err)
				}
				var sink int
				for {
					t, err := rr.Read()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					sink += len(t[0])
				}
				_ = sink
			}
		}
	}
	block := func(in string, mk func(string) (BlockReader, error)) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(in)))
			blk := NewBlock(schema)
			for i := 0; i < b.N; i++ {
				br, err := mk(in)
				if err != nil {
					b.Fatal(err)
				}
				var sink int
				for {
					n, err := br.ReadBlock(blk, 512)
					for j := 0; j < n; j++ {
						sink += len(blk.Col(0).Value(j))
					}
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				_ = sink
			}
		}
	}

	mkLegacyCSV := func(in string) (RowReader, error) {
		return NewCSVRowReader(strings.NewReader(in), schema)
	}
	mkLegacyJSONL := func(in string) (RowReader, error) {
		return NewJSONLRowReader(strings.NewReader(in), schema), nil
	}
	mkBlockCSV := func(in string) (BlockReader, error) {
		return NewCSVBlockReader(strings.NewReader(in), schema)
	}
	mkBlockJSONL := func(in string) (BlockReader, error) {
		return NewJSONLBlockReader(strings.NewReader(in), schema), nil
	}

	b.Run("csv/stdlib", legacy(plain.String(), mkLegacyCSV))
	b.Run("csv/zerocopy", block(plain.String(), mkBlockCSV))
	b.Run("csv-quoted/stdlib", legacy(quoted.String(), mkLegacyCSV))
	b.Run("csv-quoted/zerocopy", block(quoted.String(), mkBlockCSV))
	b.Run("jsonl/stdlib", legacy(jsonl.String(), mkLegacyJSONL))
	b.Run("jsonl/zerocopy", block(jsonl.String(), mkBlockJSONL))
}
