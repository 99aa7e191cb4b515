package keyhash

// This file implements the bit-level notation of Section 2.1:
//
//	set_bit(d,a,v)— d with bit position a set to value v
//
// It is used verbatim by the embedding algorithm of Figure 1 and is
// exercised directly by the notation tests. b(X) and msb(X, b) live
// beside those tests.

// SetBit returns set_bit(d, a, v): d with bit position a (0 = least
// significant) forced to v. v must be 0 or 1.
func SetBit(d uint64, a int, v uint64) uint64 {
	if a < 0 || a > 63 {
		panic("keyhash: bit position out of range [0,63]")
	}
	if v > 1 {
		panic("keyhash: bit value must be 0 or 1")
	}
	mask := uint64(1) << uint(a)
	if v == 1 {
		return d | mask
	}
	return d &^ mask
}

// Bit returns bit position a of d (0 = least significant).
func Bit(d uint64, a int) uint64 {
	if a < 0 || a > 63 {
		panic("keyhash: bit position out of range [0,63]")
	}
	return (d >> uint(a)) & 1
}

// PairIndex maps a pseudorandom draw onto a categorical value index t in
// [0, n) whose least significant bit equals bit. This realises the paper's
//
//	t = set_bit(msb(H(T(K);k1), b(n_A)), 0, wm_bit)
//
// while guaranteeing t < n for every n ≥ 2 (the raw construct can overflow
// the value set when n is not a power of two — see DESIGN.md, clarification
// 1). Values are organised as ⌊n/2⌋ (even, odd) pairs; the draw picks the
// pair uniformly and bit picks the side, so the decode invariant
// bit == t & 1 always holds.
func PairIndex(draw uint64, n int, bit uint64) int {
	if n < 2 {
		panic("keyhash: PairIndex requires a domain of at least 2 values")
	}
	if bit > 1 {
		panic("keyhash: bit value must be 0 or 1")
	}
	pairs := uint64(n / 2)
	t := 2*(draw%pairs) + bit
	return int(t)
}
