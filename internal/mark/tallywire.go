package mark

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/ecc"
)

// TallyWire is the serialized form of a Tally — the unit of work that
// crosses machine boundaries in a distributed audit. A cluster worker
// scans its row-range shard into ordinary tallies, wires them, and ships
// them back; the coordinator decodes each one and folds the partials in
// row order with Tally.Merge, producing a total bit-identical to a local
// single-pass scan (see the round-trip tests, which assert exactly that
// for both vote aggregations).
//
// Vote counts travel as two parallel per-position arrays rather than an
// array of structs. The JSON form makes a bandwidth-b tally 2b integers
// plus one base64 string; a shard reply uses the binary form
// (AppendBinary), 2b uvarints plus b raw bytes.
type TallyWire struct {
	// Rows, Fit, UnknownValues mirror the Tally scan counters.
	Rows          int `json:"rows"`
	Fit           int `json:"fit"`
	UnknownValues int `json:"unknown_values,omitempty"`
	// Zeros and Ones are the per-position vote counts; both have exactly
	// bandwidth entries.
	Zeros []int `json:"zeros"`
	Ones  []int `json:"ones"`
	// Last is the last vote per position in scan order, one byte per
	// position (0, 1, or 0xFF = ecc.Erased); JSON carries it base64-coded.
	Last []byte `json:"last"`
}

// Wire serializes t. The returned value shares no memory with t.
func (t *Tally) Wire() TallyWire {
	w := TallyWire{
		Rows:          t.Rows,
		Fit:           t.Fit,
		UnknownValues: t.UnknownValues,
		Zeros:         make([]int, len(t.Votes)),
		Ones:          make([]int, len(t.Votes)),
		Last:          make([]byte, len(t.Last)),
	}
	for i, v := range t.Votes {
		w.Zeros[i] = v.Zeros
		w.Ones[i] = v.Ones
	}
	copy(w.Last, t.Last)
	return w
}

// Tally deserializes w, validating shape and value ranges — wire input
// crosses trust boundaries, and a malformed partial must fail the shard
// rather than corrupt (or panic) the merged audit. The returned tally
// shares no memory with w.
func (w TallyWire) Tally() (*Tally, error) {
	if len(w.Zeros) != len(w.Ones) || len(w.Zeros) != len(w.Last) {
		return nil, fmt.Errorf("mark: tally wire arrays disagree: %d zeros, %d ones, %d last",
			len(w.Zeros), len(w.Ones), len(w.Last))
	}
	if w.Rows < 0 || w.Fit < 0 || w.UnknownValues < 0 {
		return nil, fmt.Errorf("mark: negative tally counters (rows=%d, fit=%d, unknown=%d)",
			w.Rows, w.Fit, w.UnknownValues)
	}
	t := &Tally{
		Rows:          w.Rows,
		Fit:           w.Fit,
		UnknownValues: w.UnknownValues,
		Votes:         make([]ecc.VoteTally, len(w.Zeros)),
		Last:          make([]uint8, len(w.Last)),
	}
	for i := range w.Zeros {
		if w.Zeros[i] < 0 || w.Ones[i] < 0 {
			return nil, fmt.Errorf("mark: negative vote count at position %d", i)
		}
		t.Votes[i] = ecc.VoteTally{Zeros: w.Zeros[i], Ones: w.Ones[i]}
		switch w.Last[i] {
		case ecc.Zero, ecc.One, ecc.Erased:
			t.Last[i] = w.Last[i]
		default:
			return nil, fmt.Errorf("mark: invalid last-vote byte %#x at position %d", w.Last[i], i)
		}
	}
	return t, nil
}

// Bandwidth reports the wire tally's position count — what the receiver
// checks against its scanner's bandwidth before merging.
func (w TallyWire) Bandwidth() int { return len(w.Zeros) }

// The binary form of a TallyWire is what a cluster worker's shard reply
// carries (api.ContentTypeTally): three uvarint counters (Rows, Fit,
// UnknownValues), then Zeros and Ones each as a uvarint length followed
// by that many uvarint counts, then Last as a uvarint length followed by
// its raw bytes. A bandwidth-400 tally is about a kilobyte this way,
// against nearly ten as indented JSON. The encoding is canonical: every
// uvarint is minimal, so each TallyWire has exactly one binary form and
// UnmarshalBinary accepts nothing else.

// AppendBinary appends the binary form of w to b. Counters and counts
// must be non-negative, as they are in every tally Wire produces.
func (w TallyWire) AppendBinary(b []byte) ([]byte, error) {
	if w.Rows < 0 || w.Fit < 0 || w.UnknownValues < 0 {
		return b, fmt.Errorf("mark: negative tally counters (rows=%d, fit=%d, unknown=%d)",
			w.Rows, w.Fit, w.UnknownValues)
	}
	b = binary.AppendUvarint(b, uint64(w.Rows))
	b = binary.AppendUvarint(b, uint64(w.Fit))
	b = binary.AppendUvarint(b, uint64(w.UnknownValues))
	for _, counts := range [2][]int{w.Zeros, w.Ones} {
		b = binary.AppendUvarint(b, uint64(len(counts)))
		for i, n := range counts {
			if n < 0 {
				return b, fmt.Errorf("mark: negative vote count at position %d", i)
			}
			b = binary.AppendUvarint(b, uint64(n))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(w.Last)))
	return append(b, w.Last...), nil
}

// UnmarshalBinary decodes exactly one binary TallyWire from data;
// trailing bytes are an error. Value ranges are left to Tally, as for
// the JSON form.
func (w *TallyWire) UnmarshalBinary(data []byte) error {
	d := NewBinaryDecoder(data)
	v := d.TallyWire()
	if err := d.Finish(); err != nil {
		return fmt.Errorf("mark: tally wire: %w", err)
	}
	*w = v
	return nil
}

// MaxBinaryLen bounds the binary form of a TallyWire of the given
// bandwidth — what a reader may accept before it stops trusting a reply.
func MaxBinaryLen(bandwidth int) int {
	return 6*binary.MaxVarintLen64 + bandwidth*(2*binary.MaxVarintLen64+1)
}

// BinaryDecoder reads the canonical binary forms of this package's wire
// types, and the uvarints of envelopes that embed them, off a byte
// slice. Every length is checked against the input that remains before
// anything is allocated. The first malformed read sets a sticky error
// and later reads return zero values, so a caller checks Finish once.
type BinaryDecoder struct {
	buf []byte
	err error
}

// NewBinaryDecoder returns a decoder over data.
func NewBinaryDecoder(data []byte) *BinaryDecoder { return &BinaryDecoder{buf: data} }

// TallyWire reads one binary TallyWire (see AppendBinary).
func (d *BinaryDecoder) TallyWire() TallyWire {
	w := TallyWire{Rows: d.Int(), Fit: d.Int(), UnknownValues: d.Int()}
	// Every count takes at least one byte.
	w.Zeros = d.ints(d.Len(1))
	w.Ones = d.ints(d.Len(1))
	w.Last = d.bytes(d.Len(1))
	return w
}

func (d *BinaryDecoder) ints(n int) []int {
	if d.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.Int()
	}
	return out
}

// uvarint reads one minimal-length uvarint.
func (d *BinaryDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	switch {
	case n == 0:
		d.err = io.ErrUnexpectedEOF
		return 0
	case n < 0:
		d.err = errors.New("uvarint overflows 64 bits")
		return 0
	case n > 1 && d.buf[n-1] == 0:
		// A zero final byte adds nothing: the same value has a shorter
		// encoding, and a canonical decoder accepts only that one.
		d.err = errors.New("non-minimal uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Int reads a uvarint that must fit in an int.
func (d *BinaryDecoder) Int() int {
	v := d.uvarint()
	if v > math.MaxInt {
		d.fail(fmt.Errorf("value %d overflows int", v))
		return 0
	}
	return int(v)
}

// Varint reads a zigzag-coded signed varint (binary.AppendVarint) that
// must fit in an int.
func (d *BinaryDecoder) Varint() int {
	u := d.uvarint()
	v := int64(u>>1) ^ -int64(u&1)
	if int64(int(v)) != v {
		d.fail(fmt.Errorf("value %d overflows int", v))
		return 0
	}
	return int(v)
}

// Len reads an element count whose elements take at least minSize bytes
// each, rejecting a count the remaining input cannot hold.
func (d *BinaryDecoder) Len(minSize int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)/minSize) {
		d.fail(fmt.Errorf("length %d exceeds the %d bytes left", n, len(d.buf)))
		return 0
	}
	return int(n)
}

// bytes returns a copy of the next n bytes.
func (d *BinaryDecoder) bytes(n int) []byte {
	if d.err == nil && n > len(d.buf) {
		d.fail(io.ErrUnexpectedEOF)
	}
	if d.err != nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf)
	d.buf = d.buf[n:]
	return out
}

// Finish reports the first read error, or an error when input remains.
func (d *BinaryDecoder) Finish() error {
	if d.err == nil && len(d.buf) > 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.buf))
	}
	return d.err
}

func (d *BinaryDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}
