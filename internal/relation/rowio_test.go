package relation

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

// The stdlib-backed row readers: the oracles the zero-copy block
// readers — and through them ReadCSV/ReadJSONL — are fuzzed and
// benchmarked against, so the formats cannot drift. CSVRowReader wraps
// encoding/csv in the configuration the block reader reproduces;
// JSONLRowReader decodes each record with encoding/json into a
// map[string]string.

// RowReader yields a relation's tuples one at a time in stream order.
type RowReader interface {
	// Schema returns the schema the tuples conform to.
	Schema() *Schema
	// Read returns the next tuple, in schema attribute order. It returns
	// io.EOF after the last tuple. The returned tuple is owned by the
	// caller. Primary-key uniqueness is NOT enforced across a stream —
	// only a materialized Relation can afford the index; streaming callers
	// that need it must track keys themselves.
	Read() (Tuple, error)
}

// CSVRowReader streams tuples from CSV input. The header row is consumed
// by NewCSVRowReader; file column order may differ from schema order and
// is mapped by name, exactly as in ReadCSV.
type CSVRowReader struct {
	schema *Schema
	cr     *csv.Reader
	colFor []int // file column -> schema position
	row    int
}

// NewCSVRowReader reads and validates the CSV header, returning a reader
// positioned at the first data row.
func NewCSVRowReader(rd io.Reader, schema *Schema) (*CSVRowReader, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = schema.Arity()
	// Read copies the record into a caller-owned Tuple, so the csv.Reader
	// can safely recycle its field slice between rows.
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	colFor := make([]int, len(header))
	seen := make(map[string]bool, len(header))
	for fileCol, name := range header {
		pos, ok := schema.Index(name)
		if !ok {
			return nil, fmt.Errorf("relation: CSV column %q not in schema", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("relation: duplicate CSV column %q", name)
		}
		seen[name] = true
		colFor[fileCol] = pos
	}
	if len(seen) != schema.Arity() {
		return nil, fmt.Errorf("relation: CSV header has %d of %d schema attributes",
			len(seen), schema.Arity())
	}
	return &CSVRowReader{schema: schema, cr: cr, colFor: colFor, row: 1}, nil
}

// Schema returns the reader's schema.
func (r *CSVRowReader) Schema() *Schema { return r.schema }

// Read returns the next tuple or io.EOF.
func (r *CSVRowReader) Read() (Tuple, error) {
	rec, err := r.cr.Read()
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV row %d: %w", r.row, err)
	}
	t := make(Tuple, r.schema.Arity())
	for fileCol, v := range rec {
		t[r.colFor[fileCol]] = v
	}
	r.row++
	return t, nil
}

// JSONLRowReader streams tuples from JSON-lines input: one object per
// line keyed by attribute name, with exactly the schema's attributes.
type JSONLRowReader struct {
	schema *Schema
	dec    *json.Decoder
	obj    map[string]string // reused decode target; cleared before each row
	row    int
}

// NewJSONLRowReader returns a reader over JSONL input.
func NewJSONLRowReader(rd io.Reader, schema *Schema) *JSONLRowReader {
	return &JSONLRowReader{schema: schema, dec: json.NewDecoder(rd)}
}

// Schema returns the reader's schema.
func (r *JSONLRowReader) Schema() *Schema { return r.schema }

// Read returns the next tuple or io.EOF. Extra or missing keys are
// errors, as silent column loss would corrupt watermark detection.
func (r *JSONLRowReader) Read() (Tuple, error) {
	// Reuse one map across rows (a JSON null row nils it out — re-make).
	if r.obj == nil {
		r.obj = make(map[string]string, r.schema.Arity())
	} else {
		clear(r.obj)
	}
	if err := r.dec.Decode(&r.obj); err == io.EOF {
		return nil, io.EOF
	} else if err != nil {
		return nil, fmt.Errorf("relation: reading JSONL row %d: %w", r.row, err)
	}
	obj := r.obj
	if len(obj) != r.schema.Arity() {
		return nil, fmt.Errorf("relation: JSONL row %d has %d keys, schema has %d",
			r.row, len(obj), r.schema.Arity())
	}
	t := make(Tuple, r.schema.Arity())
	for name, v := range obj {
		pos, ok := r.schema.Index(name)
		if !ok {
			return nil, fmt.Errorf("relation: JSONL row %d key %q not in schema", r.row, name)
		}
		t[pos] = v
	}
	r.row++
	return t, nil
}

// ReadAll drains a RowReader into a materialized Relation, enforcing
// primary-key uniqueness as it appends. Row numbers in errors are
// 1-based, matching the readers' own parse errors. It allocates per row;
// ReadCSV and ReadJSONL drain the block readers instead and report the
// same rows and errors — ReadAll over the row readers is their oracle.
func ReadAll(rr RowReader) (*Relation, error) {
	out := New(rr.Schema())
	row := 1
	for {
		t, err := rr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if err := out.Append(t); err != nil {
			return nil, fmt.Errorf("row %d: %w", row, err)
		}
		row++
	}
}

func rowioSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema([]Attribute{
		{Name: "Visit_Nbr", Type: TypeInt},
		{Name: "Item_Nbr", Type: TypeInt, Categorical: true},
	}, "Visit_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func rowioRelation(t testing.TB) *Relation {
	t.Helper()
	r := New(rowioSchema(t))
	for _, row := range [][2]string{{"1", "10"}, {"2", "11"}, {"3", "10"}} {
		if err := r.Append(Tuple{row[0], row[1]}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestCSVRowRoundTrip streams a relation out one tuple at a time through
// a plain csv.Writer and reads it back with the row reader.
func TestCSVRowRoundTrip(t *testing.T) {
	r := rowioRelation(t)
	var b strings.Builder
	cw := csv.NewWriter(&b)
	if err := cw.Write([]string{"Visit_Nbr", "Item_Nbr"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Len(); i++ {
		if err := cw.Write(r.Tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}

	rr, err := NewCSVRowReader(strings.NewReader(b.String()), r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(rr)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(got) {
		t.Fatalf("round trip lost data:\nin:  %v\nout: %v", r, got)
	}
}

// TestJSONLRowRoundTrip writes one JSON object per tuple and reads the
// lines back with the row reader.
func TestJSONLRowRoundTrip(t *testing.T) {
	r := rowioRelation(t)
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for i := 0; i < r.Len(); i++ {
		tup := r.Tuple(i)
		if err := enc.Encode(map[string]string{"Visit_Nbr": tup[0], "Item_Nbr": tup[1]}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadAll(NewJSONLRowReader(strings.NewReader(b.String()), r.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(got) {
		t.Fatalf("round trip lost data:\nin:  %v\nout: %v", r, got)
	}
}

func TestCSVRowReaderMalformed(t *testing.T) {
	schema := rowioSchema(t)
	headerErrs := map[string]string{
		"":                           "empty input",
		"Visit_Nbr,Unknown\n1,2\n":   "unknown column",
		"Visit_Nbr,Visit_Nbr\n1,2\n": "duplicate column",
		"Visit_Nbr\n1\n":             "missing column",
	}
	for in, why := range headerErrs {
		if _, err := NewCSVRowReader(strings.NewReader(in), schema); err == nil {
			t.Errorf("%s: header accepted: %q", why, in)
		}
	}

	rowErrs := map[string]string{
		"Visit_Nbr,Item_Nbr\n1\n":        "short row",
		"Visit_Nbr,Item_Nbr\n1,2,3\n":    "long row",
		"Visit_Nbr,Item_Nbr\n\"1,2\n":    "unterminated quote",
		"Visit_Nbr,Item_Nbr\n1,\"a\"b\n": "stray quote",
	}
	for in, why := range rowErrs {
		rr, err := NewCSVRowReader(strings.NewReader(in), schema)
		if err != nil {
			t.Errorf("%s: header rejected: %v", why, err)
			continue
		}
		if _, err := rr.Read(); err == nil || err == io.EOF {
			t.Errorf("%s: row accepted: %q", why, in)
		}
	}
}

func TestJSONLRowReaderMalformed(t *testing.T) {
	schema := rowioSchema(t)
	cases := map[string]string{
		"{\"Visit_Nbr\":\"1\"}\n":                                    "missing key",
		"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"2\",\"Extra\":\"3\"}\n": "extra key",
		"{\"Visit_Nbr\":\"1\",\"Wrong\":\"2\"}\n":                    "unknown key",
		"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":2}\n":                     "non-string value",
		"not json\n":                                                 "not json",
		"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"2\"":                    "truncated object",
		"[\"Visit_Nbr\",\"Item_Nbr\"]\n":                             "array not object",
	}
	for in, why := range cases {
		rr := NewJSONLRowReader(strings.NewReader(in), schema)
		if _, err := rr.Read(); err == nil || err == io.EOF {
			t.Errorf("%s: accepted: %q", why, in)
		}
	}
}

func TestReadAllEnforcesKeyUniqueness(t *testing.T) {
	schema := rowioSchema(t)
	in := "Visit_Nbr,Item_Nbr\n1,10\n1,11\n"
	rr, err := NewCSVRowReader(strings.NewReader(in), schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(rr); err == nil {
		t.Fatal("duplicate primary key accepted by ReadAll")
	}
}

// TestRowsReaderYieldsClones: a block read from Rows(r) holds copies of
// the relation's values, so a later rewrite of the relation leaves it
// untouched.
func TestRowsReaderYieldsClones(t *testing.T) {
	r := rowioRelation(t)
	blk := NewBlock(r.Schema())
	if _, err := Rows(r).ReadBlock(blk, 1); err != nil {
		t.Fatal(err)
	}
	want := blk.Col(1).String(0)
	if err := r.SetValue(0, "Item_Nbr", "mutated"); err != nil {
		t.Fatal(err)
	}
	if got := blk.Col(1).String(0); got != want {
		t.Fatalf("Rows block aliases relation storage: %q became %q", want, got)
	}
}

// FuzzCSVRowReader asserts the CSV row path never panics and only ever
// returns rows of schema arity, whatever bytes arrive.
func FuzzCSVRowReader(f *testing.F) {
	f.Add("Visit_Nbr,Item_Nbr\n1,10\n2,11\n")
	f.Add("Item_Nbr,Visit_Nbr\n10,1\n")
	f.Add("Visit_Nbr,Item_Nbr\n\"quoted,comma\",2\n")
	f.Add("Visit_Nbr,Item_Nbr\r\n1,\r\n")
	f.Add("\xff\xfe")
	f.Fuzz(func(t *testing.T, in string) {
		schema := rowioSchema(t)
		rr, err := NewCSVRowReader(strings.NewReader(in), schema)
		if err != nil {
			return
		}
		for i := 0; i < 1000; i++ {
			tup, err := rr.Read()
			if err != nil {
				return
			}
			if len(tup) != schema.Arity() {
				t.Fatalf("row arity %d, schema %d", len(tup), schema.Arity())
			}
		}
	})
}

// FuzzJSONLRowReader is the JSONL counterpart.
func FuzzJSONLRowReader(f *testing.F) {
	f.Add("{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"10\"}\n")
	f.Add("{}")
	f.Add("null\n")
	f.Add("{\"Visit_Nbr\":\"\\u0000\",\"Item_Nbr\":\"x\"}")
	f.Add("\x00{")
	f.Fuzz(func(t *testing.T, in string) {
		schema := rowioSchema(t)
		rr := NewJSONLRowReader(strings.NewReader(in), schema)
		for i := 0; i < 1000; i++ {
			tup, err := rr.Read()
			if err != nil {
				return
			}
			if len(tup) != schema.Arity() {
				t.Fatalf("row arity %d, schema %d", len(tup), schema.Arity())
			}
		}
	})
}
