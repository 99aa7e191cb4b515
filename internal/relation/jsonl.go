package relation

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// JSON-lines codec: one JSON object per line keyed by attribute name.
// Complements the CSV codec for pipelines whose tooling speaks JSONL
// (e.g. log processors and data-mining feeds, the paper's motivating
// consumers). Round trips are lossless for any string values.

// WriteJSONL writes the relation as JSON lines.
func WriteJSONL(w io.Writer, r *Relation) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	arity := r.Schema().Arity()
	names := make([]string, arity)
	for i := range names {
		names[i] = r.Schema().Attr(i).Name
	}
	obj := make(map[string]string, arity) // the same keys every row
	for i := 0; i < r.Len(); i++ {
		for j, name := range names {
			obj[name] = r.At(i, j)
		}
		if err := enc.Encode(obj); err != nil {
			return fmt.Errorf("relation: writing JSONL row %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL reads a relation under the given schema from JSON lines.
// Every object must supply exactly the schema's attributes; extra or
// missing keys are errors, as silent column loss would corrupt watermark
// detection. It drains a JSONLBlockReader the way ReadCSV drains the CSV
// one; JSONLRowReader remains as its test oracle.
func ReadJSONL(rd io.Reader, schema *Schema) (*Relation, error) {
	in := &countingReader{rd: rd}
	br := NewJSONLBlockReader(in, schema)
	return readBlocks(br, inputSize(rd), func() int64 { return in.n - int64(br.w-br.r) })
}
