package relation

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// Row-at-a-time reading. The materializing codecs (ReadCSV/ReadJSONL)
// load a whole relation into memory; RowReader yields one tuple at a
// time. The stdlib-backed CSVRowReader and JSONLRowReader are the
// oracles the zero-copy block readers — and through them
// ReadCSV/ReadJSONL — are fuzzed against, so the formats cannot drift.
// Output goes through WriteCSV/WriteJSONL.

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

// Rows returns a reader over a materialized relation, for feeding
// in-memory data to streaming consumers.
func Rows(r *Relation) *RelationReader { return &RelationReader{r: r} }

// RelationReader streams a materialized relation's rows in order as a
// BlockReader, filling blocks through Relation.FillBlock.
type RelationReader struct {
	r *Relation
	i int
}

// Schema returns the relation's schema.
func (m *RelationReader) Schema() *Schema { return m.r.Schema() }

// ReadBlock fills b with up to maxRows rows (<= 0 means a default
// batch). See BlockReader for the contract.
func (m *RelationReader) ReadBlock(b *Block, maxRows int) (int, error) {
	if m.i >= m.r.Len() {
		b.Reset(m.r.schema)
		return 0, io.EOF
	}
	if maxRows <= 0 {
		maxRows = defaultBlockRows
	}
	lo := m.i
	m.i = min(lo+maxRows, m.r.Len())
	m.r.FillBlock(b, lo, m.i)
	return m.i - lo, nil
}
