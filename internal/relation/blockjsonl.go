package relation

import (
	"bytes"
	"fmt"
	"io"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// JSONLBlockReader is the zero-copy JSONL ingestion path: a windowed
// scanner over the input stream that decodes one flat JSON object per
// record straight into a Block's column arenas. Decoding semantics are
// bit-identical to the legacy JSONLRowReader's json.Decoder into
// map[string]string — the fuzz tests drive both over the same inputs
// and demand identical row streams: whitespace (including newlines)
// between records and tokens, duplicate keys resolved last-wins with
// the field count taken over distinct keys, null accepted as the empty
// string, every escape form (\uXXXX incl. surrogate pairs, with
// unpaired surrogates and invalid UTF-8 replaced by U+FFFD without
// error), and control characters inside strings rejected.
//
// The hot loops run on the buffered window rather than byte by byte
// through the refill path: whitespace skips and runs of plain ASCII
// string bytes are consumed in window-local loops, and a key is first
// compared in place against the attribute that followed the previous
// key in the last record — schema order until a record says otherwise,
// so any writer with a stable key order (json.Marshal's sorted map keys
// included) hits — before it is decoded and looked up by name.
//
// JSONLBlockReader implements BlockReader and RawShardSource (the
// record skim); do not interleave ReadBlock and SkimRecords calls on
// one reader.
type JSONLBlockReader struct {
	cursor
	schema *Schema
	rd     io.Reader
	// buf is the sliding input window [r:w); fill slides the consumed
	// bytes out before reading more.
	buf  []byte
	r, w int
	eof  bool
	// keyBuf holds a key decoded for lookup by name. seen tracks the
	// record's distinct keys; a duplicate key's value replaces the one
	// already in its column's open field (last write wins, exactly like
	// a map decode).
	keyBuf []byte
	seen   []bool
	// names holds each attribute's name where a key spelling it with
	// plain bytes decodes to exactly the name (see literalKey); nil
	// entries always take the decode-and-lookup path. follow predicts
	// key order: follow[0] is the position of the last record's first
	// key, follow[p+1] the position of the key that followed p.
	names  [][]byte
	follow []int
}

// NewJSONLBlockReader returns a reader decoding one JSON object per
// record from rd.
func NewJSONLBlockReader(rd io.Reader, schema *Schema) *JSONLBlockReader {
	arity := schema.Arity()
	names := make([][]byte, arity)
	follow := make([]int, arity+1)
	for i, a := range schema.attrs {
		if literalKey(a.Name) {
			names[i] = []byte(a.Name)
		}
		follow[i] = i
	}
	return &JSONLBlockReader{
		cursor: cursor{row: 1},
		schema: schema,
		rd:     rd,
		seen:   make([]bool, arity),
		names:  names,
		follow: follow,
	}
}

// JSONLPayloadReader is a JSONLBlockReader over input held whole in
// memory. Its window is the input itself — nothing is read or copied
// into a buffer — and SkimSpan cuts shards from it that alias the input.
// No reader method writes to the window: fill, the one place that does,
// returns at end of input before touching it.
type JSONLPayloadReader struct {
	*JSONLBlockReader
	payload string
}

// NewJSONLPayloadReader returns a reader decoding one JSON object per
// record from data.
//
//wmlint:ignore unsafeview the window aliases data, and no reader method writes to it (see JSONLPayloadReader)
func NewJSONLPayloadReader(data string, schema *Schema) *JSONLPayloadReader {
	r := NewJSONLBlockReader(nil, schema)
	r.buf = unsafe.Slice(unsafe.StringData(data), len(data))
	r.w, r.eof = len(data), true
	return &JSONLPayloadReader{JSONLBlockReader: r, payload: data}
}

// literalKey reports whether name's bytes, written verbatim between
// quotes, decode to exactly name: plain ASCII string bytes throughout.
func literalKey(name string) bool {
	for i := 0; i < len(name); i++ {
		if !plain[name[i]] {
			return false
		}
	}
	return true
}

// Schema returns the reader's schema.
func (r *JSONLBlockReader) Schema() *Schema { return r.schema }

// RawHeader returns nil: JSONL streams have no preamble.
func (r *JSONLBlockReader) RawHeader() []byte { return nil }

// FormatName returns "jsonl".
func (r *JSONLBlockReader) FormatName() string { return "jsonl" }

// ReadBlock resets b and fills it with up to maxRows rows (<= 0 means a
// default batch). See BlockReader for the contract.
func (r *JSONLBlockReader) ReadBlock(b *Block, maxRows int) (int, error) {
	b.Reset(r.schema)
	return r.records(maxRows, func() error {
		if err := r.parseRecord(b); err != nil {
			return err
		}
		b.rows++
		return nil
	})
}

// SkimRecords appends up to maxRows whole records to dst without
// decoding a field (see RawShardSource): each object's exact bytes from
// '{' through its closing '}', plus a newline. An object ends at the
// first '}' outside a string — the one place an object the parser
// accepts can end, since accepted records are flat and hold only
// strings and nulls; strings are tracked with their backslash escapes.
func (r *JSONLBlockReader) SkimRecords(dst []byte, maxRows int) ([]byte, int, error) {
	n, err := r.records(maxRows, func() (err error) {
		dst, err = r.skimRecord(dst, true)
		return err
	})
	return dst, n, err
}

// SkimSpan is SkimRecords without the copy. It skims up to maxRows
// whole records (all of them, not a batch) and returns the input bytes
// that hold them — a substring running through the last record's end,
// which may start with the whitespace before the first record — and the
// number of records. Errors and io.EOF are exactly SkimRecords'.
func (r *JSONLPayloadReader) SkimSpan(maxRows int) (string, int, error) {
	start, end := r.r, r.r
	n, err := r.records(maxRows, func() error {
		_, err := r.skimRecord(nil, false)
		if err == nil {
			end = r.r
		}
		return err
	})
	return r.payload[start:end], n, err
}

// skimRecord appends the next record to dst, or returns io.EOF at a
// clean end of input. On error dst is returned unextended. With keep
// false it only moves past the record, appending nothing.
func (r *JSONLBlockReader) skimRecord(dst []byte, keep bool) ([]byte, error) {
	if err := r.skipSpace(); err != nil {
		return dst, err
	}
	if c := r.buf[r.r]; c != '{' {
		return dst, r.rowErrf("invalid character %q looking for beginning of object", c)
	}
	mark := len(dst)
	inStr, esc := false, false
	start := r.r
	r.r++
	for {
		for i := r.r; i < r.w; i++ {
			c := r.buf[i]
			switch {
			case esc:
				esc = false
			case inStr:
				esc = c == '\\'
				inStr = c != '"'
			case c == '"':
				inStr = true
			case c == '}':
				r.r = i + 1
				if !keep {
					return dst, nil
				}
				dst = append(dst, r.buf[start:r.r]...)
				return append(dst, '\n'), nil
			}
		}
		if keep {
			dst = append(dst, r.buf[start:r.w]...)
		}
		r.r = r.w
		if err := r.fill(); err != nil {
			return dst[:mark], r.unexpEOF(err)
		}
		start = r.r
	}
}

// rowErrf positions a terminal parse error at the current data row.
func (r *JSONLBlockReader) rowErrf(format string, args ...any) error {
	return fmt.Errorf("relation: reading JSONL row %d: %s", r.row, fmt.Sprintf(format, args...))
}

// unexpEOF converts a boundary io.EOF into a mid-record error.
func (r *JSONLBlockReader) unexpEOF(err error) error {
	if err == io.EOF {
		return r.rowErrf("unexpected end of JSON input")
	}
	return err
}

// fill reads more input into the window, sliding the consumed bytes
// before r out first and growing the buffer only when the unread bytes
// fill it. Returns io.EOF only when no byte was added at EOF.
func (r *JSONLBlockReader) fill() error {
	if r.eof {
		return io.EOF
	}
	if r.r > 0 {
		r.w = copy(r.buf, r.buf[r.r:r.w])
		r.r = 0
	}
	if r.w == len(r.buf) {
		if len(r.buf) == 0 {
			r.buf = make([]byte, 64*1024)
		} else {
			nb := make([]byte, 2*len(r.buf))
			copy(nb, r.buf[:r.w])
			r.buf = nb
		}
	}
	for {
		n, err := r.rd.Read(r.buf[r.w:])
		r.w += n
		if err == io.EOF {
			r.eof = true
			if n == 0 {
				return io.EOF
			}
			return nil
		}
		if err != nil {
			return err
		}
		if n > 0 {
			return nil
		}
	}
}

// ensure refills until the window holds at least n unread bytes or the
// input ends (best effort — callers re-check the window size).
func (r *JSONLBlockReader) ensure(n int) error {
	for r.w-r.r < n {
		if err := r.fill(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
	return nil
}

// peekByte returns the next byte without consuming it; io.EOF when the
// input is exhausted. The window hit is small enough to inline; only a
// refill takes the call.
func (r *JSONLBlockReader) peekByte() (byte, error) {
	if r.r < r.w {
		return r.buf[r.r], nil
	}
	return r.peekSlow()
}

// peekSlow is peekByte's refill path.
func (r *JSONLBlockReader) peekSlow() (byte, error) {
	for r.r == r.w {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	return r.buf[r.r], nil
}

// nextByte consumes and returns the next byte.
func (r *JSONLBlockReader) nextByte() (byte, error) {
	if r.r < r.w {
		c := r.buf[r.r]
		r.r++
		return c, nil
	}
	c, err := r.peekSlow()
	if err == nil {
		r.r++
	}
	return c, err
}

// skipSpace consumes JSON whitespace; io.EOF when the input ends. On
// success the next byte is in the window.
func (r *JSONLBlockReader) skipSpace() error {
	for {
		for ; r.r < r.w; r.r++ {
			if c := r.buf[r.r]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
				return nil
			}
		}
		if err := r.fill(); err != nil {
			return err
		}
	}
}

// matchKey consumes name and the closing quote after it when the window
// holds them at the cursor, refilling if the window is too short to
// tell. A nil name never matches.
func (r *JSONLBlockReader) matchKey(name []byte) bool {
	if name == nil || r.w-r.r <= len(name) && (r.ensure(len(name)+1) != nil || r.w-r.r <= len(name)) {
		return false
	}
	if r.buf[r.r+len(name)] != '"' || !bytes.Equal(r.buf[r.r:r.r+len(name)], name) {
		return false
	}
	r.r += len(name) + 1
	return true
}

// parseRecord decodes the next object into b's columns, each value
// straight into its column's open field; the fields close only once the
// whole record parsed, so a failed record leaves the committed rows
// intact. Returns io.EOF when the input ends at a record boundary.
func (r *JSONLBlockReader) parseRecord(b *Block) error {
	if err := r.skipSpace(); err != nil {
		return err // io.EOF: clean end of input
	}
	c, _ := r.nextByte()
	if c != '{' {
		return r.rowErrf("invalid character %q looking for beginning of object", c)
	}
	clear(r.seen)
	distinct := 0
	if err := r.skipSpace(); err != nil {
		return r.unexpEOF(err)
	}
	if r.buf[r.r] == '}' {
		r.r++
	} else {
		slot := 0 // follow slot of the previous key
		for {
			if err := r.skipSpace(); err != nil {
				return r.unexpEOF(err)
			}
			if c := r.buf[r.r]; c != '"' {
				return r.rowErrf("invalid character %q looking for object key", c)
			}
			r.r++
			pos := r.follow[slot]
			if !r.matchKey(r.names[pos]) {
				var err error
				if r.keyBuf, err = r.appendUnquoted(r.keyBuf[:0]); err != nil {
					return err
				}
				// Direct map index so the string(...) conversion stays
				// on the stack — the method-call form would allocate per
				// key.
				var ok bool
				if pos, ok = r.schema.byName[string(r.keyBuf)]; !ok {
					return r.rowErrf("unknown column %q", r.keyBuf)
				}
			}
			r.follow[slot], slot = pos, pos+1
			if err := r.skipSpace(); err != nil {
				return r.unexpEOF(err)
			}
			if c := r.buf[r.r]; c != ':' {
				return r.rowErrf("invalid character %q after object key", c)
			}
			r.r++
			if err := r.skipSpace(); err != nil {
				return r.unexpEOF(err)
			}
			col := &b.cols[pos]
			if r.seen[pos] {
				col.data = col.data[:col.offs[len(col.offs)-1]]
			} else {
				r.seen[pos] = true
				distinct++
			}
			switch c := r.buf[r.r]; c {
			case '"':
				r.r++
				var err error
				if col.data, err = r.appendUnquoted(col.data); err != nil {
					return err
				}
			case 'n':
				// null decodes into map[string]string as the empty
				// string without error; values must match that.
				r.r++
				for _, want := range [3]byte{'u', 'l', 'l'} {
					if c, err := r.nextByte(); err != nil {
						return r.unexpEOF(err)
					} else if c != want {
						return r.rowErrf("invalid literal")
					}
				}
			default:
				return r.rowErrf("invalid character %q looking for string value", c)
			}
			if err := r.skipSpace(); err != nil {
				return r.unexpEOF(err)
			}
			c := r.buf[r.r]
			r.r++
			if c == '}' {
				break
			}
			if c != ',' {
				return r.rowErrf("invalid character %q after object value", c)
			}
		}
	}
	if distinct != r.schema.Arity() {
		return r.rowErrf("object has %d fields, schema has %d", distinct, r.schema.Arity())
	}
	for pos := range b.cols {
		b.cols[pos].closeRow()
	}
	return nil
}

// plain marks the string bytes that decode to themselves: printable
// ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// appendUnquoted decodes a JSON string body (opening quote already
// consumed) into dst, consuming through the closing quote. Semantics
// match encoding/json's unquote: \uXXXX escapes with surrogate
// pairing, unpaired surrogates and invalid UTF-8 become U+FFFD without
// error, control characters are rejected.
func (r *JSONLBlockReader) appendUnquoted(dst []byte) ([]byte, error) {
	for {
		i := r.r
		for i < r.w && plain[r.buf[i]] {
			i++
		}
		dst = append(dst, r.buf[r.r:i]...)
		r.r = i
		c, err := r.peekByte()
		if err != nil {
			return dst, r.unexpEOF(err)
		}
		switch {
		case c == '"':
			r.r++
			return dst, nil
		case c == '\\':
			r.r++
			e, err := r.nextByte()
			if err != nil {
				return dst, r.unexpEOF(err)
			}
			switch e {
			case '"':
				dst = append(dst, '"')
			case '\\':
				dst = append(dst, '\\')
			case '/':
				dst = append(dst, '/')
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr, err := r.readU4()
				if err != nil {
					return dst, err
				}
				if utf16.IsSurrogate(rr) {
					if rr2 := r.peekU4Escape(); rr2 >= 0 {
						if dec := utf16.DecodeRune(rr, rr2); dec != unicode.ReplacementChar {
							r.r += 6
							dst = utf8.AppendRune(dst, dec)
							continue
						}
					}
					// Unpaired surrogate: U+FFFD, no error, and the
					// following bytes are re-processed as-is.
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
			default:
				return dst, r.rowErrf("invalid character %q in string escape code", e)
			}
		case c < 0x20:
			return dst, r.rowErrf("invalid character %#U in string literal", rune(c))
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r.r++
		default:
			// Multi-byte rune: invalid UTF-8 becomes U+FFFD (size 1),
			// exactly like encoding/json.
			if err := r.ensure(utf8.UTFMax); err != nil {
				return dst, err
			}
			ch, size := utf8.DecodeRune(r.buf[r.r:r.w])
			r.r += size
			dst = utf8.AppendRune(dst, ch)
		}
	}
}

// readU4 consumes four hex digits of a \u escape.
func (r *JSONLBlockReader) readU4() (rune, error) {
	var v rune
	for i := 0; i < 4; i++ {
		c, err := r.nextByte()
		if err != nil {
			return 0, r.unexpEOF(err)
		}
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 + rune(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 + rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 + rune(c-'A'+10)
		default:
			return 0, r.rowErrf("invalid character %q in \\u hexadecimal escape", c)
		}
	}
	return v, nil
}

// peekU4Escape decodes a \uXXXX escape at the cursor without consuming
// it, or -1 if the next six bytes are not one.
func (r *JSONLBlockReader) peekU4Escape() rune {
	if err := r.ensure(6); err != nil || r.w-r.r < 6 {
		return -1
	}
	if r.buf[r.r] != '\\' || r.buf[r.r+1] != 'u' {
		return -1
	}
	var v rune
	for _, c := range r.buf[r.r+2 : r.r+6] {
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 + rune(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 + rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 + rune(c-'A'+10)
		default:
			return -1
		}
	}
	return v
}
