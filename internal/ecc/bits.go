// Package ecc implements the error-correcting codes the watermarking
// algorithm deploys over its embedding bandwidth (Section 3.2.1): the
// watermark wm (|wm| bits) is expanded into wm_data (N/e bits) before
// embedding — wm_data = ECC.encode(wm, N/e) — and majority voting recovers
// the most likely wm from a corrupted wm_data at detection time —
// wm = ECC.decode(wm_data, |wm|). The paper deploys majority voting codes;
// this package provides them in two layouts plus an identity code for
// ablation benchmarks.
package ecc

import (
	"fmt"
	"strings"
)

// Bit values stored in Bits. Erased marks a wm_data position that no fit
// tuple voted for at detection time (possible after data loss); decoders
// skip erased positions instead of treating them as zeros.
const (
	Zero   uint8 = 0
	One    uint8 = 1
	Erased uint8 = 0xFF
)

// Bits is a sequence of watermark bits (values Zero, One or Erased).
type Bits []uint8

// NewErased returns a bit string of length n with every position erased.
func NewErased(n int) Bits {
	b := make(Bits, n)
	for i := range b {
		b[i] = Erased
	}
	return b
}

// ParseBits parses a string like "1011001010" into Bits. '?' marks an
// erased position.
func ParseBits(s string) (Bits, error) {
	b := make(Bits, len(s))
	for i, c := range s {
		switch c {
		case '0':
			b[i] = Zero
		case '1':
			b[i] = One
		case '?':
			b[i] = Erased
		default:
			return nil, fmt.Errorf("ecc: invalid bit character %q at %d", c, i)
		}
	}
	return b, nil
}

// MustParseBits is ParseBits that panics on error.
func MustParseBits(s string) Bits {
	b, err := ParseBits(s)
	if err != nil {
		panic(err)
	}
	return b
}

// Uint64 packs the bits (most significant first) into a uint64. Erased
// positions read as zero. Panics beyond 64 bits.
func (b Bits) Uint64() uint64 {
	if len(b) > 64 {
		panic("ecc: more than 64 bits")
	}
	var v uint64
	for _, bit := range b {
		v <<= 1
		if bit == One {
			v |= 1
		}
	}
	return v
}

// String renders the bits as '0'/'1'/'?'.
func (b Bits) String() string {
	var sb strings.Builder
	sb.Grow(len(b))
	for _, bit := range b {
		switch bit {
		case Zero:
			sb.WriteByte('0')
		case One:
			sb.WriteByte('1')
		default:
			sb.WriteByte('?')
		}
	}
	return sb.String()
}

// Validate checks that every position is Zero, One or Erased.
func (b Bits) Validate() error {
	for i, bit := range b {
		if bit != Zero && bit != One && bit != Erased {
			return fmt.Errorf("ecc: invalid bit value %d at position %d", bit, i)
		}
	}
	return nil
}

// HammingDistance counts positions where the two bit strings differ.
// Erased positions count as differing from anything except another
// erasure. Panics on length mismatch.
func HammingDistance(a, b Bits) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("ecc: length mismatch %d vs %d", len(a), len(b)))
	}
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// AlterationRate returns HammingDistance(a,b) / len(a): the "mark
// alteration" metric plotted on the Y axis of the paper's Figures 4–7.
// Returns 0 for empty input.
func AlterationRate(a, b Bits) float64 {
	if len(a) == 0 {
		return 0
	}
	return float64(HammingDistance(a, b)) / float64(len(a))
}
