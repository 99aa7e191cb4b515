package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// CSV codec. The header row carries attribute names; logical types and the
// categorical flag travel in a schema spec string so that round-trips are
// lossless. Spec grammar, one clause per attribute, comma-separated:
//
//	name:type[:categorical]    e.g.  "Visit_Nbr:int, Item_Nbr:int:categorical"
//
// The first attribute marked with a trailing "!key", or else the first
// attribute, is the primary key:
//
//	"Visit_Nbr:int!key, Item_Nbr:int:categorical"

// ParseSchemaSpec parses the spec grammar above into a Schema.
func ParseSchemaSpec(spec string) (*Schema, error) {
	clauses := strings.Split(spec, ",")
	attrs := make([]Attribute, 0, len(clauses))
	keyName := ""
	for _, clause := range clauses {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		isKey := false
		if strings.HasSuffix(clause, "!key") {
			isKey = true
			clause = strings.TrimSuffix(clause, "!key")
		}
		parts := strings.Split(clause, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("relation: bad schema clause %q", clause)
		}
		typ, err := ParseType(parts[1])
		if err != nil {
			return nil, err
		}
		attr := Attribute{Name: strings.TrimSpace(parts[0]), Type: typ}
		if len(parts) == 3 {
			flag := strings.ToLower(strings.TrimSpace(parts[2]))
			if flag != "categorical" && flag != "cat" {
				return nil, fmt.Errorf("relation: bad attribute flag %q", parts[2])
			}
			attr.Categorical = true
		}
		attrs = append(attrs, attr)
		if isKey {
			if keyName != "" {
				return nil, fmt.Errorf("relation: multiple !key attributes")
			}
			keyName = attr.Name
		}
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation: empty schema spec")
	}
	if keyName == "" {
		keyName = attrs[0].Name
	}
	return NewSchema(attrs, keyName)
}

// SchemaSpec renders s back into the spec grammar (inverse of
// ParseSchemaSpec).
func SchemaSpec(s *Schema) string {
	var b strings.Builder
	for i, a := range s.Attrs() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
		b.WriteByte(':')
		b.WriteString(a.Type.String())
		if a.Categorical {
			b.WriteString(":categorical")
		}
		if i == s.KeyIndex() {
			b.WriteString("!key")
		}
	}
	return b.String()
}

// WriteCSV writes the relation with a header row of attribute names.
// It fails on a value holding \r\n, which encoding/csv reads back as
// \n, naming the row and column.
func WriteCSV(w io.Writer, r *Relation) error {
	cw := csv.NewWriter(w)
	header := make([]string, r.Schema().Arity())
	for i := range header {
		header[i] = r.Schema().Attr(i).Name
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("relation: writing CSV header: %w", err)
	}
	row := make(Tuple, r.arity)
	for i := 0; i < r.Len(); i++ {
		r.tupleInto(row, i)
		for j, v := range row {
			if strings.Contains(v, "\r\n") {
				return fmt.Errorf("relation: writing CSV row %d: column %q holds \\r\\n, which CSV reads back as \\n", i, header[j])
			}
		}
		if len(row) == 1 && row[0] == "" {
			// encoding/csv writes a lone empty field as a blank line,
			// which every reader skips; a quoted "" reads back as the
			// one empty field.
			cw.Flush()
			if err := cw.Error(); err != nil {
				return fmt.Errorf("relation: writing CSV row %d: %w", i, err)
			}
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return fmt.Errorf("relation: writing CSV row %d: %w", i, err)
			}
			continue
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("relation: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a relation under the given schema. The CSV header must
// name exactly the schema's attributes; column order in the file may
// differ from schema order and is mapped by name. It drains a
// CSVBlockReader into the relation's column storage (see Relation),
// copying each block column's bytes into the arena and each block's
// keys into the key table as the block is read; use the block reader
// directly to stream without holding the whole relation. The
// stdlib-backed CSVRowReader in the package's tests accepts and rejects
// exactly the same inputs; it is the fuzz oracle.
func ReadCSV(rd io.Reader, schema *Schema) (*Relation, error) {
	in := &countingReader{rd: rd}
	br, err := NewCSVBlockReader(in, schema)
	if err != nil {
		return nil, err
	}
	return readBlocks(br, inputSize(rd), func() int64 { return in.n - int64(br.br.Buffered()) })
}
