package relation

import (
	"fmt"
	"io"
	"slices"
	"sync"
)

// Columnar blocks: the zero-allocation ingestion unit. A Block holds one
// batch of rows in column-major form — each attribute's values
// concatenated into one contiguous byte arena with an offset table — so
// the scan engine can hand a key column to the batched keyed-hash
// kernels as raw bytes (keyhash.Kernel.HashColumn) without ever
// materializing a string per field. Blocks are recycled through a
// sync.Pool (GetBlock/PutBlock): once the pool is warm, a block travels
// from the input stream through mark.ScanColumns without a single
// per-row allocation.
//
// The arenas are owned by the block and overwritten on the next
// Reset/ReadBlock into it. Callers that need a value to outlive the
// block must copy it (Column.String is the sanctioned materializer);
// the wmlint arenacopy analyzer flags stray string(...) conversions of
// arena-backed slices inside the block loops.

// Column is one attribute's values across a block: all field bytes
// concatenated in data, with offs[i]:offs[i+1] delimiting row i
// (len(offs) == rows+1, offs[0] == 0).
type Column struct {
	data []byte
	offs []int32
}

// Value returns row i's bytes. The slice aliases the block arena and is
// valid only until the block is reset or returned to the pool.
func (c *Column) Value(i int) []byte { return c.data[c.offs[i]:c.offs[i+1]] }

// String materializes row i as an owned string — the one sanctioned
// copy out of the arena; everything on the scan hot path works on the
// Value byte view instead.
func (c *Column) String(i int) string {
	//wmlint:ignore arenacopy String is the sanctioned arena materializer
	return string(c.Value(i))
}

// Raw exposes the column's arena and offset table for batched hashing
// (keyhash.Kernel.HashColumn operates on exactly this shape). Both
// slices alias block storage; same lifetime rules as Value.
func (c *Column) Raw() (data []byte, offs []int32) { return c.data, c.offs }

// reset empties the column, keeping capacity.
func (c *Column) reset() {
	c.data = c.data[:0]
	if cap(c.offs) == 0 {
		c.offs = make([]int32, 1, 64)
	}
	c.offs = c.offs[:1]
	c.offs[0] = 0
}

// appendBytes extends the currently open field.
func (c *Column) appendBytes(b []byte) { c.data = append(c.data, b...) }

// appendByte extends the currently open field by one byte.
func (c *Column) appendByte(b byte) { c.data = append(c.data, b) }

// closeRow seals the currently open field as the next row's value.
func (c *Column) closeRow() { c.offs = append(c.offs, int32(len(c.data))) }

// Block is one batch of rows in columnar form.
type Block struct {
	schema *Schema
	rows   int
	cols   []Column
	// gen increments on every Reset, giving pooled blocks a cheap
	// identity: (pointer, gen) pins one filling of one block, which is
	// how mark.BlockScratch knows when its per-block memo went stale.
	gen uint64
}

// NewBlock returns an empty block shaped for schema. Prefer
// GetBlock/PutBlock on hot paths — pooled blocks keep their arenas.
//
//wmlint:ignore reachable perfbench's per-layer probes fill blocks it makes here; that module is not in the lint run's view
func NewBlock(schema *Schema) *Block {
	b := &Block{}
	b.Reset(schema)
	return b
}

// Reset empties the block and shapes it for schema, keeping arena
// capacity. Readers call it at the top of every ReadBlock.
func (b *Block) Reset(schema *Schema) {
	b.schema = schema
	b.rows = 0
	b.gen++
	arity := schema.Arity()
	if cap(b.cols) < arity {
		b.cols = append(b.cols[:cap(b.cols)], make([]Column, arity-cap(b.cols))...)
	}
	b.cols = b.cols[:arity]
	for i := range b.cols {
		b.cols[i].reset()
	}
}

// Schema returns the schema the block's columns conform to.
func (b *Block) Schema() *Schema { return b.schema }

// Rows returns the number of complete rows in the block.
func (b *Block) Rows() int { return b.rows }

// Gen returns the block's fill generation (see the gen field).
func (b *Block) Gen() uint64 { return b.gen }

// Col returns the column at schema position i.
func (b *Block) Col(i int) *Column { return &b.cols[i] }

// AppendTuple adds one row to the block in schema attribute order.
// Like FillBlock it appends only the listed columns (every column when
// none is listed), so a block built row by row for one kernel carries
// just the columns that kernel reads; list the same columns, each once,
// on every row of a block. The block readers append parsed field bytes
// directly into the arenas instead.
func (b *Block) AppendTuple(t Tuple, cols ...int) error {
	if len(t) != len(b.cols) {
		return fmt.Errorf("relation: tuple arity %d, block arity %d", len(t), len(b.cols))
	}
	if len(cols) == 0 {
		for c := range b.cols {
			b.cols[c].appendValue(t[c])
		}
	}
	for _, c := range cols {
		b.cols[c].appendValue(t[c])
	}
	b.rows++
	return nil
}

// appendValue appends one row's value.
func (c *Column) appendValue(v string) {
	c.data = append(c.data, v...)
	c.closeRow()
}

// FillBlock resets b for r's schema and copies rows [lo, hi) of r into
// it — the one place materialized rows become columns, so the scan
// engine votes over a relation through the same kernel it runs over a
// stream. Only the listed columns, which must be distinct, are copied;
// the others stay empty, so a kernel passes just the columns it reads.
// With no columns listed every column is copied. It panics if the range
// is out of bounds.
func (r *Relation) FillBlock(b *Block, lo, hi int, cols ...int) {
	b.Reset(r.schema)
	refs := r.refs[lo*r.arity : hi*r.arity]
	if len(cols) == 0 {
		for c := range b.cols {
			b.cols[c].fill(&r.cols[c], refs, c, r.arity)
		}
	}
	for _, c := range cols {
		b.cols[c].fill(&r.cols[c], refs, c, r.arity)
	}
	b.rows = hi - lo
}

// fill appends column j of the rows whose slots refs holds, stride per
// row, to an empty column from c's storage. Values that lie back to
// back in the arena — a plain block column ReadCSV copied in one run —
// are copied as one run.
func (col *Column) fill(c *column, refs []uint64, j, stride int) {
	col.offs = slices.Grow(col.offs, len(refs)/stride)
	var start, end uint64
	for i := j; i < len(refs); i += stride {
		ref := refs[i]
		if c.coded {
			ref = c.labels[ref]
		}
		off := ref >> lenBits
		if off != end {
			col.data = append(col.data, c.arena[start:end]...)
			start = off
		}
		end = off + ref&lenMask
		col.offs = append(col.offs, int32(uint64(len(col.data))+end-start))
	}
	col.data = append(col.data, c.arena[start:end]...)
}

// blockPool recycles blocks across reads and workers; arenas stay warm,
// so steady-state ingestion does not allocate per block, let alone per
// row.
var blockPool = sync.Pool{New: func() any { return new(Block) }}

// GetBlock returns a pooled block reset for schema.
func GetBlock(schema *Schema) *Block {
	b := blockPool.Get().(*Block)
	b.Reset(schema)
	return b
}

// PutBlock returns a block to the pool. The caller must not touch the
// block (or any Value/Raw slice taken from it) afterwards.
func PutBlock(b *Block) {
	if b != nil {
		blockPool.Put(b)
	}
}

// BlockReader is the batched row source every scan reads: it fills a
// caller-owned Block with up to maxRows rows per call. Implementations
// reset b before filling it.
//
// ReadBlock returns the number of complete rows appended. At end of
// input it returns (0, io.EOF) — never rows together with io.EOF. A
// parse error is returned with the count of complete rows parsed before
// it; the error is sticky, and the block's committed rows remain valid.
type BlockReader interface {
	// Schema returns the schema the rows conform to.
	Schema() *Schema
	// ReadBlock resets b and fills it with up to maxRows rows.
	ReadBlock(b *Block, maxRows int) (int, error)
}

// Rows returns a reader over a materialized relation, for feeding
// in-memory data to streaming consumers.
//
//wmlint:ignore reachable test adapter: pipeline, core and server tests feed materialized relations to BlockReader consumers through it
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

// defaultBlockRows sizes the default ReadBlock/SkimRecords batch and
// the blocks ReadCSV/ReadJSONL drain.
const defaultBlockRows = 512

// cursor is the record bookkeeping both block readers share: the row
// position errors name, the sticky terminal error, and the batching loop
// behind ReadBlock and SkimRecords.
type cursor struct {
	row int   // next data row, 1-based (error reporting)
	err error // sticky terminal parse/read error
}

// records calls next for up to maxRows records (<= 0 means a default
// batch) and returns how many it handled. io.EOF from next ends the
// batch; it is returned only when no record came before it, and never
// together with records. Any other error is sticky.
func (c *cursor) records(maxRows int, next func() error) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	if maxRows <= 0 {
		maxRows = defaultBlockRows
	}
	n := 0
	for ; n < maxRows; n++ {
		if err := next(); err == io.EOF {
			if n == 0 {
				return 0, io.EOF
			}
			break
		} else if err != nil {
			c.err = err
			return n, err
		}
		c.row++
	}
	return n, nil
}

// readBlocks drains br into a materialized Relation — the engine behind
// ReadCSV and ReadJSONL — one block at a time through appendBlock, a
// few allocations per block, none per row. When the input's length in
// bytes is known (size > 0), consumed reports how many of them br has
// parsed, and storage grows to the whole input at the rate read so far
// and a sixteenth more, not by doubling: the first block sizes it, and
// a denser tail re-estimates. It reads the rows ReadAll over the row
// readers reads, a repeated key included, and fails where ReadAll fails.
func readBlocks(br BlockReader, size int64, consumed func() int64) (*Relation, error) {
	b := GetBlock(br.Schema())
	defer PutBlock(b)
	out := New(br.Schema())
	var start int64
	if size > 0 {
		start = consumed()
	}
	for {
		n, err := br.ReadBlock(b, defaultBlockRows)
		if err == io.EOF {
			return out, nil
		}
		scale := 2.0
		if size > 0 {
			scale = float64(size-start) / float64(max(1, consumed()-start)) * 17 / 16
		}
		if appendErr := out.appendBlock(b, n, scale); appendErr != nil {
			return nil, appendErr
		}
		if err != nil {
			return nil, err
		}
	}
}

// countingReader counts the bytes read through it, so a reader
// buffering on top of it can tell how much of its input it has parsed.
type countingReader struct {
	rd io.Reader
	n  int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rd.Read(p)
	c.n += int64(n)
	return n, err
}

// inputSize returns rd's remaining length in bytes when rd reports it
// (bytes.Reader, strings.Reader, bytes.Buffer), else 0.
func inputSize(rd io.Reader) int64 {
	if l, ok := rd.(interface{ Len() int }); ok {
		return int64(l.Len())
	}
	return 0
}

// appendBlock appends the first n rows of b, each plain column's bytes
// to its arena in one copy and each coded value as its code, growing
// storage by scale (grow). It fails only on the storage limits, naming
// the row where it can; the relation is then unusable.
func (r *Relation) appendBlock(b *Block, n int, scale float64) error {
	if n == 0 {
		return nil
	}
	if r.rows+n > maxRows {
		return fmt.Errorf("relation: more than %d rows", maxRows)
	}
	base, a := r.rows, r.arity
	r.refs = grow(r.refs, n*a, scale)[:(base+n)*a]
	for c := range a {
		col, dst := &b.cols[c], &r.cols[c]
		data := col.data[:col.offs[n]]
		if len(dst.arena)+len(data) > maxArena {
			return fmt.Errorf("relation: column %d exceeds the %d-byte arena limit", c, maxArena)
		}
		off := uint64(len(dst.arena))
		if !dst.coded {
			dst.arena = append(grow(dst.arena, len(data), scale), data...)
		}
		for i := 0; i < n; i++ {
			lo, hi := col.offs[i], col.offs[i+1]
			if hi-lo > maxValueLen {
				return fmt.Errorf("row %d: relation: value of %d bytes exceeds the %d-byte limit", base+i+1, hi-lo, maxValueLen)
			}
			ref := uint64(lo)<<lenBits | uint64(hi-lo)
			if dst.coded {
				ref = uint64(dst.intern(viewIn(data, ref)))
			} else {
				ref += off << lenBits
			}
			r.refs[(base+i)*a+c] = ref
		}
	}
	r.rows += n
	return nil
}

// RawShardSource is a suspect stream the cluster coordinator can cut
// into shards without parsing it: besides the block view it skims whole
// records — finding record boundaries and copying their exact bytes,
// decoding no field — so each shard payload is the source's header plus
// verbatim record bytes, parsed once, on the worker that scans it. Both
// zero-copy block readers implement it; do not interleave SkimRecords
// with ReadBlock on one reader.
type RawShardSource interface {
	BlockReader
	// SkimRecords appends up to maxRows whole records to dst and returns
	// the extended slice and the number of records appended. Field-level
	// problems (an unknown column, a wrong arity, a bad escape) pass
	// through untouched for the parser to reject; only structural errors
	// — a record that cannot be delimited — surface here, sticky and
	// positioned at their row, with dst holding the records before it.
	// At end of input it returns (dst, 0, io.EOF) — never records
	// together with io.EOF.
	SkimRecords(dst []byte, maxRows int) ([]byte, int, error)
	// RawHeader returns the raw bytes of the stream preamble — the CSV
	// header line including its newline — or nil for formats without one.
	RawHeader() []byte
	// FormatName returns the shard wire-format name ("csv" or "jsonl")
	// a worker needs to parse the skimmed payload.
	FormatName() string
}
