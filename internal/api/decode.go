package api

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// DecodeBody decodes a JSON request body into v, which must point at a
// zero value, with exactly the semantics of json.Unmarshal: the same
// inputs are accepted and they decode to the same values.
//
// For the bodies that carry a suspect relation — *JobRequest (both
// watermark.data and verify_batch.data), *BatchVerifyRequest,
// *VerifyRequest and *WatermarkRequest — it walks the body once and
// unescapes each data string in place, inside body. Only the small
// fields go through encoding/json, on a copy of the body in which each
// of those data literals is replaced by a short token that is mapped
// back afterwards, so encoding/json never sees a partly unescaped
// buffer. The decoded Data strings alias body: body must not be
// modified or reused once DecodeBody has been called on it. Any other v
// goes to json.Unmarshal unchanged.
//
//wmlint:ignore unsafeview the Data strings view body, which the caller must not modify or reuse afterwards
func DecodeBody(body []byte, v any) error {
	var level int
	switch v.(type) {
	case *JobRequest:
		level = levelJob
	case *BatchVerifyRequest, *VerifyRequest, *WatermarkRequest:
		level = levelPayload
	default:
		return json.Unmarshal(body, v)
	}
	d := bodyDecoder{buf: body}
	if err := d.walk(level); err != nil {
		return err
	}
	if len(d.suspects) == 0 {
		// Nothing was unescaped: body is still the original bytes.
		return json.Unmarshal(body, v)
	}
	if err := json.Unmarshal(d.small, v); err != nil {
		return err
	}
	for _, f := range suspectFields(v) {
		if *f == "" {
			continue // no data member, or only nulls
		}
		i, err := strconv.Atoi(*f)
		if err != nil || i < 0 || i >= len(d.suspects) {
			return fmt.Errorf("api: data field %q is not a suspect token", *f)
		}
		s := d.suspects[i]
		*f = unsafe.String(unsafe.SliceData(s), len(s))
	}
	return nil
}

// suspectFields lists the Data fields a decoded body can carry a
// suspect token in.
func suspectFields(v any) []*string {
	switch v := v.(type) {
	case *JobRequest:
		var fs []*string
		if v.Watermark != nil {
			fs = append(fs, &v.Watermark.Data)
		}
		if v.VerifyBatch != nil {
			fs = append(fs, &v.VerifyBatch.Data)
		}
		return fs
	case *BatchVerifyRequest:
		return []*string{&v.Data}
	case *VerifyRequest:
		return []*string{&v.Data}
	case *WatermarkRequest:
		return []*string{&v.Data}
	}
	return nil
}

// Object levels of the walk: what a member of the object being walked
// can hold.
const (
	levelSkip    = iota // nothing: validate and move on
	levelPayload        // a suspect in a "data" string member
	levelJob            // payloads in "watermark"/"verify_batch" object members
)

// maxDepth is encoding/json's nesting limit: deeper bodies are rejected.
const maxDepth = 10000

// bodyDecoder is one walk over a request body.
type bodyDecoder struct {
	buf   []byte
	pos   int
	depth int
	// small is buf with each suspect literal replaced by its token;
	// last is the end of the literal replaced most recently.
	small []byte
	last  int
	// suspects holds the unescaped data strings, by token.
	suspects [][]byte
	// key and folded are scratch for the member key being matched.
	key, folded []byte
}

// walk validates the whole body as one JSON value, unescaping the
// suspect literals that level selects, and builds small.
func (d *bodyDecoder) walk(level int) error {
	d.space()
	var err error
	if d.peek() == '{' {
		err = d.object(level)
	} else {
		err = d.value()
	}
	if err != nil {
		return err
	}
	d.space()
	if d.pos < len(d.buf) {
		return d.errorf("invalid character %s after top-level value", quoteChar(d.buf[d.pos]))
	}
	if len(d.suspects) > 0 {
		d.small = append(d.small, d.buf[d.last:]...)
	}
	return nil
}

// errorf reports a syntax error at the cursor.
func (d *bodyDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), d.pos)
}

var errEOF = errors.New("unexpected end of JSON input")

func quoteChar(c byte) string {
	if c == '\'' {
		return `'\''`
	}
	if c == '"' {
		return `'"'`
	}
	s := strconv.Quote(string(c))
	return "'" + s[1:len(s)-1] + "'"
}

// peek returns the byte at the cursor, or 0 at the end of the body.
func (d *bodyDecoder) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

func (d *bodyDecoder) space() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// unexpected is the error for the byte at the cursor where context
// expected something else.
func (d *bodyDecoder) unexpected(context string) error {
	if d.pos >= len(d.buf) {
		return errEOF
	}
	return d.errorf("invalid character %s %s", quoteChar(d.buf[d.pos]), context)
}

func (d *bodyDecoder) push() error {
	d.depth++
	if d.depth > maxDepth {
		return d.errorf("exceeded max depth")
	}
	d.pos++
	return nil
}

// value validates and skips one JSON value at the cursor.
func (d *bodyDecoder) value() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(levelSkip)
	case c == '[':
		return d.array()
	case c == '"':
		return d.skipString()
	case c == '-' || ('0' <= c && c <= '9'):
		return d.number()
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	default:
		return d.unexpected("looking for beginning of value")
	}
}

// object walks the object at the cursor. At levelPayload a string
// member whose key matches "data" is a suspect; at levelJob an object
// member whose key matches "watermark" or "verify_batch" is a payload.
// Keys match as encoding/json matches them to struct fields.
func (d *bodyDecoder) object(level int) error {
	if err := d.push(); err != nil {
		return err
	}
	d.space()
	if d.peek() == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.unexpected("looking for beginning of object key string")
		}
		var err error
		if level == levelSkip {
			err = d.skipString()
		} else {
			d.key, err = d.unquote(d.key[:0], false)
			d.foldKey()
		}
		if err != nil {
			return err
		}
		d.space()
		if d.peek() != ':' {
			return d.unexpected("after object key")
		}
		d.pos++
		d.space()
		switch c := d.peek(); {
		case level == levelPayload && c == '"' && d.keyIs("DATA"):
			err = d.suspect()
		case level == levelJob && c == '{' && (d.keyIs("WATERMARK") || d.keyIs("VERIFY_BATCH")):
			err = d.object(levelPayload)
		default:
			err = d.value()
		}
		if err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
			d.space()
		case '}':
			d.pos++
			d.depth--
			return nil
		default:
			return d.unexpected("after object key:value pair")
		}
	}
}

func (d *bodyDecoder) array() error {
	if err := d.push(); err != nil {
		return err
	}
	d.space()
	if d.peek() == ']' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if err := d.value(); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
			d.space()
		case ']':
			d.pos++
			d.depth--
			return nil
		default:
			return d.unexpected("after array element")
		}
	}
}

func (d *bodyDecoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.peek() != word[i] {
			return d.unexpected("in literal " + word + " (expecting " + quoteChar(word[i]) + ")")
		}
		d.pos++
	}
	return nil
}

// number validates -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (d *bodyDecoder) number() error {
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return d.unexpected("in numeric literal")
	}
	if d.peek() == '.' {
		d.pos++
		if c := d.peek(); c < '0' || c > '9' {
			return d.unexpected("after decimal point in numeric literal")
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if c := d.peek(); c < '0' || c > '9' {
			return d.unexpected("in exponent of numeric literal")
		}
		d.digits()
	}
	return nil
}

func (d *bodyDecoder) digits() {
	for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
		d.pos++
	}
}

// keyIs reports whether the member key matches the struct field whose
// folded name is upper, under encoding/json's rule: an exact or a
// case-folded match. Every field named here is lower-case ASCII, so the
// exact match implies the folded one.
func (d *bodyDecoder) keyIs(upper string) bool {
	return string(d.folded) == upper
}

// foldKey folds the unescaped member key as encoding/json folds names.
func (d *bodyDecoder) foldKey() {
	d.folded = d.folded[:0]
	for i := 0; i < len(d.key); {
		if c := d.key[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			d.folded = append(d.folded, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(d.key[i:])
		d.folded = utf8.AppendRune(d.folded, foldRune(r))
		i += n
	}
}

// foldRune returns the smallest rune of r's simple case-fold orbit, as
// encoding/json folds field names.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// special flags, with the high bit of each byte, the bytes of the
// little-endian word x that are not plain: control bytes, the quote,
// the backslash and every byte of a multi-byte sequence. Flags above
// the lowest may be false positives; the lowest one is exact.
func special(x uint64) uint64 {
	const lsb, msb = 0x0101010101010101, 0x8080808080808080
	ctl := (x - lsb*' ') &^ x
	q := x ^ (lsb * '"')
	bs := x ^ (lsb * '\\')
	return (ctl | (q-lsb)&^q | (bs-lsb)&^bs | x) & msb
}

// plain marks the string bytes that stand for themselves: printable
// ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// skipString validates the string literal at the cursor without
// decoding it.
func (d *bodyDecoder) skipString() error {
	b := d.buf
	r := d.pos + 1
	for {
		for r < len(b) && (plain[b[r]] || b[r] >= utf8.RuneSelf) {
			r++
		}
		if r >= len(b) {
			d.pos = r
			return errEOF
		}
		switch c := b[r]; {
		case c == '"':
			d.pos = r + 1
			return nil
		case c == '\\':
			_, n, err := d.escape(r)
			if err != nil {
				return err
			}
			r += n
		default:
			d.pos = r
			return d.errorf("invalid character %s in string literal", quoteChar(c))
		}
	}
}

// suspect unescapes the data literal at the cursor in place, records it
// as the next token and splices the token into small.
func (d *bodyDecoder) suspect() error {
	start := d.pos
	s, err := d.unquote(nil, true)
	if err != nil {
		return err
	}
	d.small = append(d.small, d.buf[d.last:start]...)
	d.small = append(d.small, '"')
	d.small = strconv.AppendInt(d.small, int64(len(d.suspects)), 10)
	d.small = append(d.small, '"')
	d.last = d.pos
	d.suspects = append(d.suspects, s)
	return nil
}

// unquote decodes the string literal at the cursor the way
// encoding/json does — escapes resolved, invalid UTF-8 and lone
// surrogates replaced by U+FFFD — and leaves the cursor after the
// closing quote. The output is appended to dst, or, with inPlace,
// written over the literal itself from its first content byte.
//
// In place, every escape shrinks, so the write position never passes
// the read position. The one growing case is a raw invalid UTF-8 byte
// (one byte in, three out); when that would overrun the read position,
// the output moves to a buffer of its own for the rest of the literal.
func (d *bodyDecoder) unquote(dst []byte, inPlace bool) ([]byte, error) {
	b := d.buf
	base := d.pos + 1
	r, w := base, base // read and in-place write positions
	for {
		// Copy the run of plain bytes up to the next one that needs
		// decoding — in place a word at a time. Once the write position
		// trails by a word or more, a whole word is stored even when only
		// its first k bytes are plain: the rest lands in the gap between
		// the write and the read position, to be overwritten.
		if inPlace {
			for r+8 <= len(b) {
				x := binary.LittleEndian.Uint64(b[r:])
				if m := special(x); m != 0 {
					k := bits.TrailingZeros64(m) >> 3
					if r-w >= 8 {
						binary.LittleEndian.PutUint64(b[w:], x)
					} else if w != r {
						copy(b[w:w+k], b[r:r+k])
					}
					w, r = w+k, r+k
					break
				}
				if w != r {
					binary.LittleEndian.PutUint64(b[w:], x)
				}
				w, r = w+8, r+8
			}
			for r < len(b) && plain[b[r]] {
				b[w] = b[r]
				w, r = w+1, r+1
			}
		} else {
			run := r
			for r < len(b) && plain[b[r]] {
				r++
			}
			dst = append(dst, b[run:r]...)
		}
		if r >= len(b) {
			d.pos = r
			return nil, errEOF
		}
		c := b[r]
		switch {
		case c == '"':
			d.pos = r + 1
			if inPlace {
				return b[base:w], nil
			}
			return dst, nil
		case c == '\\' && r+1 < len(b) && unescaped[b[r+1]] != 0:
			if inPlace {
				b[w] = unescaped[b[r+1]]
				w++
			} else {
				dst = append(dst, unescaped[b[r+1]])
			}
			r += 2
		case c == '\\':
			rr, n, err := d.escape(r)
			if err != nil {
				return nil, err
			}
			r += n
			switch {
			case inPlace && rr < utf8.RuneSelf:
				b[w] = byte(rr)
				w++
			case inPlace:
				w += utf8.EncodeRune(b[w:], rr)
			default:
				dst = utf8.AppendRune(dst, rr)
			}
		case c < ' ':
			d.pos = r
			return nil, d.errorf("invalid character %s in string literal", quoteChar(c))
		default:
			rr, size := utf8.DecodeRune(b[r:])
			if rr == utf8.RuneError && size == 1 {
				if inPlace && w+len(replacement) > r+size {
					dst = append([]byte(nil), b[base:w]...)
					inPlace = false
				}
				if inPlace {
					w += copy(b[w:], replacement)
				} else {
					dst = append(dst, replacement...)
				}
			} else if inPlace {
				if w != r {
					copy(b[w:], b[r:r+size])
				}
				w += size
			} else {
				dst = append(dst, b[r:r+size]...)
			}
			r += size
		}
	}
}

// unescaped maps the byte after a backslash to the byte its one-letter
// escape stands for, or to 0 when it is not a one-letter escape.
var unescaped = [256]byte{
	'"': '"', '\\': '\\', '/': '/',
	'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t',
}

// replacement is U+FFFD, what invalid UTF-8 decodes to.
const replacement = "\uFFFD"

// escape decodes the escape sequence at b[r] (a backslash), returning
// the rune and the bytes it spans. A \u escape of a high surrogate
// takes the following \u escape with it when the two form a pair;
// otherwise a surrogate decodes to U+FFFD, as in encoding/json.
func (d *bodyDecoder) escape(r int) (rune, int, error) {
	b := d.buf
	if r+1 >= len(b) {
		d.pos = len(b)
		return 0, 0, errEOF
	}
	switch c := b[r+1]; {
	case unescaped[c] != 0:
		return rune(unescaped[c]), 2, nil
	case c == 'u':
		for i := r + 2; i < r+6; i++ {
			if i >= len(b) {
				d.pos = len(b)
				return 0, 0, errEOF
			}
			if hexVal(b[i]) < 0 {
				d.pos = i
				return 0, 0, d.errorf("invalid character %s in \\u hexadecimal character escape", quoteChar(b[i]))
			}
		}
		rr := hex4(b[r+2:])
		if !utf16.IsSurrogate(rr) {
			return rr, 6, nil
		}
		lo := rune(-1)
		if r+12 <= len(b) && b[r+6] == '\\' && b[r+7] == 'u' {
			lo = hex4(b[r+8:])
		}
		if dec := utf16.DecodeRune(rr, lo); dec != unicode.ReplacementChar {
			return dec, 12, nil
		}
		return unicode.ReplacementChar, 6, nil
	default:
		d.pos = r + 1
		return 0, 0, d.errorf("invalid character %s in string escape code", quoteChar(c))
	}
}

func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// hex4 parses four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		v := hexVal(c)
		if v < 0 {
			return -1
		}
		r = r*16 + v
	}
	return r
}
