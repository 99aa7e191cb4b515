package relation

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// CSVBlockReader is the zero-copy CSV ingestion path: a bufio-backed
// parser that slices fields straight out of the read buffer into a
// Block's column arenas, allocating nothing per row once the block pool
// is warm. Parsing semantics are bit-identical to encoding/csv with the
// exact configuration the legacy CSVRowReader uses (comma separator,
// strict quotes, no comment lines, FieldsPerRecord pinned to the schema
// arity): \r\n normalization, blank-line skipping, quoted fields
// spanning lines, "" escapes, bare/stray-quote errors — the fuzz tests
// drive both parsers over the same inputs and demand identical row
// streams. The legacy reader stays as that oracle.
//
// The header row is consumed by NewCSVBlockReader; file column order
// may differ from schema order and is mapped by name, exactly as in
// NewCSVRowReader.
//
// CSVBlockReader implements BlockReader (the zero-allocation path) and
// RawShardSource (the record skim the cluster coordinator cuts shards
// with); do not interleave ReadBlock and SkimRecords calls on one
// reader.
type CSVBlockReader struct {
	cursor
	schema *Schema
	br     *bufio.Reader
	colFor []int // file column -> schema position
	// scrap absorbs header fields and any fields beyond the mapped
	// arity, so an over-long record parses to its end before the
	// field-count error surfaces (as in encoding/csv).
	scrap Column
	// spill assembles physical lines longer than the bufio buffer.
	spill     []byte
	rawHeader []byte
}

// NewCSVBlockReader reads and validates the CSV header, returning a
// reader positioned at the first data row.
func NewCSVBlockReader(rd io.Reader, schema *Schema) (*CSVBlockReader, error) {
	r := &CSVBlockReader{cursor: cursor{row: 1}, schema: schema, br: bufio.NewReader(rd)}
	// The header is skimmed first, so RawHeader is its verbatim bytes,
	// then parsed from those bytes: a record's lines parse the same
	// wherever they are read from.
	raw, err := r.skimRecord(nil)
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	r.rawHeader = raw
	hp := &CSVBlockReader{cursor: cursor{row: 1}, br: bufio.NewReaderSize(bytes.NewReader(raw), len(raw)+1)}
	hp.scrap.reset()
	nf, err := hp.parseRecord(nil)
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	if nf != schema.Arity() {
		return nil, fmt.Errorf("relation: reading CSV header: record has %d fields, schema has %d",
			nf, schema.Arity())
	}
	r.scrap = hp.scrap
	colFor := make([]int, nf)
	seen := make(map[string]bool, nf)
	for fileCol := 0; fileCol < nf; fileCol++ {
		name := r.scrap.String(fileCol)
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
	r.colFor = colFor
	r.scrap.reset()
	return r, nil
}

// Schema returns the reader's schema.
func (r *CSVBlockReader) Schema() *Schema { return r.schema }

// RawHeader returns the raw header bytes, including the newline.
func (r *CSVBlockReader) RawHeader() []byte { return r.rawHeader }

// FormatName returns "csv".
func (r *CSVBlockReader) FormatName() string { return "csv" }

// ReadBlock resets b and fills it with up to maxRows rows (<= 0 means a
// default batch). See BlockReader for the contract.
func (r *CSVBlockReader) ReadBlock(b *Block, maxRows int) (int, error) {
	b.Reset(r.schema)
	r.scrap.reset()
	return r.records(maxRows, func() error {
		nf, err := r.parseRecord(b)
		if err != nil {
			return err
		}
		if nf != r.schema.Arity() {
			return fmt.Errorf("relation: reading CSV row %d: record has %d fields, schema has %d",
				r.row, nf, r.schema.Arity())
		}
		b.rows++
		return nil
	})
}

// parseErr positions a terminal parse error at the current data row.
func (r *CSVBlockReader) parseErr(msg string) error {
	return fmt.Errorf("relation: reading CSV row %d: parse error: %s", r.row, msg)
}

// readLine returns the next physical line with the terminating newline
// stripped and \r\n normalized exactly as encoding/csv does (a trailing
// \r on the last, newline-less line of the file is dropped too). raw is
// the unmodified input span including its newline; nl reports whether
// the line ended in one. Both slices are valid until the next readLine.
func (r *CSVBlockReader) readLine() (content, raw []byte, nl bool, err error) {
	line, rerr := r.br.ReadSlice('\n')
	if rerr == bufio.ErrBufferFull {
		r.spill = append(r.spill[:0], line...)
		for rerr == bufio.ErrBufferFull {
			line, rerr = r.br.ReadSlice('\n')
			r.spill = append(r.spill, line...)
		}
		line = r.spill
	}
	if len(line) == 0 && rerr != nil {
		return nil, nil, false, rerr
	}
	if rerr != nil && rerr != io.EOF {
		return nil, nil, false, rerr
	}
	raw = line
	if n := len(line); line[n-1] == '\n' {
		nl = true
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		// Mid-file this normalizes \r\n; at EOF it drops the stray \r
		// encoding/csv drops from a newline-less final line.
		if nl || rerr == io.EOF {
			line = line[:n-1]
		}
	}
	return line, raw, nl, nil
}

// nextRecordLine returns the first line of the next record, skipping
// blank lines exactly as encoding/csv does; io.EOF when the input ends
// before a record starts.
func (r *CSVBlockReader) nextRecordLine() (content, raw []byte, nl bool, err error) {
	for {
		content, raw, nl, err = r.readLine()
		if err != nil || len(content) > 0 {
			return content, raw, nl, err
		}
	}
}

// SkimRecords appends up to maxRows whole records' exact input bytes to
// dst without parsing fields (see RawShardSource). A record ends at the
// first newline after which its quote count is even — the one place a
// record the parser accepts can end, since strict quoting admits quotes
// only as field delimiters and "" pairs.
func (r *CSVBlockReader) SkimRecords(dst []byte, maxRows int) ([]byte, int, error) {
	n, err := r.records(maxRows, func() (err error) {
		dst, err = r.skimRecord(dst)
		return err
	})
	return dst, n, err
}

// skimRecord appends the next record's lines to dst, or returns io.EOF
// at a clean end of input. On error dst is returned unextended.
func (r *CSVBlockReader) skimRecord(dst []byte) ([]byte, error) {
	_, raw, nl, err := r.nextRecordLine()
	if err != nil {
		return dst, err
	}
	mark := len(dst)
	dst = append(dst, raw...)
	for quotes := bytes.Count(raw, quote); quotes%2 == 1; quotes += bytes.Count(raw, quote) {
		if !nl {
			return dst[:mark], r.parseErr(`unterminated quoted field`)
		}
		if _, raw, nl, err = r.readLine(); err != nil {
			if err == io.EOF {
				err = r.parseErr(`unterminated quoted field`)
			}
			return dst[:mark], err
		}
		dst = append(dst, raw...)
	}
	return dst, nil
}

var quote = []byte{'"'}

// parseRecord parses one record. Data fields land in b's columns
// through the header mapping (b == nil routes every field to scrap —
// the header parse). It returns the record's field count, or io.EOF
// when the input ends before a record starts.
func (r *CSVBlockReader) parseRecord(b *Block) (int, error) {
	content, _, nl, err := r.nextRecordLine()
	if err != nil {
		return 0, err // io.EOF at a record boundary, or a read error
	}
	nf := 0
	line := content
parseField:
	for {
		var cur *Column
		if b == nil || nf >= len(r.colFor) {
			cur = &r.scrap
		} else {
			cur = &b.cols[r.colFor[nf]]
		}
		if len(line) == 0 || line[0] != '"' {
			// Unquoted field: runs to the next comma or end of record.
			field := line
			if i := bytes.IndexByte(line, ','); i >= 0 {
				field = line[:i]
				line = line[i+1:]
			} else {
				line = nil
			}
			if bytes.IndexByte(field, '"') >= 0 {
				return nf, r.parseErr(`bare " in non-quoted field`)
			}
			cur.appendBytes(field)
			cur.closeRow()
			nf++
			if line == nil {
				return nf, nil
			}
			continue parseField
		}
		// Quoted field.
		line = line[1:]
		for {
			i := bytes.IndexByte(line, '"')
			if i < 0 {
				// No closing quote on this line: the field spans lines
				// (the embedded line break is part of the value).
				cur.appendBytes(line)
				if !nl {
					return nf, r.parseErr(`unterminated quoted field`)
				}
				cur.appendByte('\n')
				var err error
				line, _, nl, err = r.readLine()
				if err == io.EOF {
					return nf, r.parseErr(`unterminated quoted field`)
				}
				if err != nil {
					return nf, err
				}
				continue
			}
			cur.appendBytes(line[:i])
			line = line[i+1:]
			switch {
			case len(line) > 0 && line[0] == '"':
				cur.appendByte('"') // "" escape
				line = line[1:]
			case len(line) > 0 && line[0] == ',':
				line = line[1:]
				cur.closeRow()
				nf++
				continue parseField
			case len(line) == 0:
				cur.closeRow()
				nf++
				return nf, nil
			default:
				return nf, r.parseErr(`extraneous or missing " in quoted-field`)
			}
		}
	}
}
