package keyhash

import (
	"testing"
	"testing/quick"
)

func TestBitLen(t *testing.T) {
	cases := []struct {
		x    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{255, 8}, {256, 9}, {1 << 63, 64}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := BitLen(c.x); got != c.want {
			t.Errorf("BitLen(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestMSB(t *testing.T) {
	cases := []struct {
		x    uint64
		b    int
		want uint64
	}{
		{0b1011, 2, 0b10},      // top 2 bits of 1011
		{0b1011, 4, 0b1011},    // exact width
		{0b1011, 8, 0b1011},    // left-padded: value unchanged
		{0b11111111, 3, 0b111}, // top 3 of 8 ones
		{1 << 63, 1, 1},        // single top bit
		{0, 10, 0},             // zero stays zero
		{0xFFFF, 0, 0},         // zero-width request
		{^uint64(0), 64, ^uint64(0)},
	}
	for _, c := range cases {
		if got := MSB(c.x, c.b); got != c.want {
			t.Errorf("MSB(%b, %d) = %b, want %b", c.x, c.b, got, c.want)
		}
	}
}

func TestMSBPanicsOutOfRange(t *testing.T) {
	for _, b := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MSB width %d: expected panic", b)
				}
			}()
			MSB(1, b)
		}()
	}
}

// Property: MSB(x,b) always fits in b bits and is a prefix of x.
func TestMSBProperty(t *testing.T) {
	f := func(x uint64, b8 uint8) bool {
		b := int(b8 % 65)
		m := MSB(x, b)
		if BitLen(m) > b {
			return false
		}
		// Shifting the prefix back up must reproduce the top of x.
		n := BitLen(x)
		if n > b {
			return m == x>>uint(n-b)
		}
		return m == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetBit(t *testing.T) {
	cases := []struct {
		d    uint64
		a    int
		v    uint64
		want uint64
	}{
		{0b1010, 0, 1, 0b1011},
		{0b1011, 0, 0, 0b1010},
		{0b1010, 0, 0, 0b1010}, // idempotent clear
		{0b1011, 0, 1, 0b1011}, // idempotent set
		{0, 63, 1, 1 << 63},
		{1 << 63, 63, 0, 0},
		{0b100, 1, 1, 0b110},
	}
	for _, c := range cases {
		if got := SetBit(c.d, c.a, c.v); got != c.want {
			t.Errorf("SetBit(%b,%d,%d) = %b, want %b", c.d, c.a, c.v, got, c.want)
		}
	}
}

func TestSetBitPanics(t *testing.T) {
	for _, tc := range []struct {
		a int
		v uint64
	}{{-1, 0}, {64, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetBit(a=%d,v=%d): expected panic", tc.a, tc.v)
				}
			}()
			SetBit(0, tc.a, tc.v)
		}()
	}
}

// Property: after set_bit(d, a, v), Bit(·, a) == v and all other bits are
// untouched — the exact contract Figure 1 depends on.
func TestSetBitProperty(t *testing.T) {
	f := func(d uint64, a8, v8 uint8) bool {
		a := int(a8 % 64)
		v := uint64(v8 % 2)
		r := SetBit(d, a, v)
		if Bit(r, a) != v {
			return false
		}
		mask := ^(uint64(1) << uint(a))
		return r&mask == d&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPairIndexInvariants(t *testing.T) {
	// Exhaustive over small domains and draws: t < n, t&1 == bit.
	for n := 2; n <= 17; n++ {
		for draw := uint64(0); draw < 200; draw++ {
			for bit := uint64(0); bit <= 1; bit++ {
				got := PairIndex(draw, n, bit)
				if got < 0 || got >= n {
					t.Fatalf("PairIndex(%d,%d,%d) = %d out of range", draw, n, bit, got)
				}
				if uint64(got)&1 != bit {
					t.Fatalf("PairIndex(%d,%d,%d) = %d, parity != bit", draw, n, bit, got)
				}
			}
		}
	}
}

func TestPairIndexCoversAllPairs(t *testing.T) {
	// Over many draws every usable value must be reachable.
	const n = 10
	seen := map[int]bool{}
	for draw := uint64(0); draw < 1000; draw++ {
		seen[PairIndex(draw, n, draw%2)] = true
	}
	if len(seen) != n {
		t.Fatalf("PairIndex covered %d of %d values", len(seen), n)
	}
}

func TestPairIndexPanicsTinyDomain(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n<2")
		}
	}()
	PairIndex(0, 1, 0)
}

// Property: PairIndex with random draws produces near-uniform pair usage.
func TestPairIndexUniformity(t *testing.T) {
	k := NewKey("uniform")
	const n = 8 // 4 pairs
	counts := make([]int, n/2)
	const trials = 8000
	for i := 0; i < trials; i++ {
		d := HashString(k, itoa(i)).Uint64()
		counts[PairIndex(d, n, 0)/2]++
	}
	want := float64(trials) / float64(n/2)
	for p, c := range counts {
		if f := float64(c); f < want*0.85 || f > want*1.15 {
			t.Errorf("pair %d used %d times, want ~%.0f", p, c, want)
		}
	}
}

func TestBitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range position")
		}
	}()
	Bit(0, 64)
}

// BitLen and MSB are the b(X) and msb(X, b) notation of Section 2.1.
// No production path needs them; the notation tests pin the definitions.

// BitLen returns b(X), the number of bits required to represent x.
// By the paper's convention b(0) = 0 (zero needs no bits; callers left-pad).
func BitLen(x uint64) int {
	n := 0
	for x != 0 {
		n++
		x >>= 1
	}
	return n
}

// MSB returns msb(X, b): the most significant b bits of x's minimal binary
// representation. When b(x) < b the result is x itself, i.e. the
// representation left-padded with (b - b(x)) zero bits, exactly as defined
// in Section 2.1. b must be in [0, 64].
func MSB(x uint64, b int) uint64 {
	if b < 0 || b > 64 {
		panic("keyhash: msb width out of range [0,64]")
	}
	if b == 0 {
		return 0
	}
	n := BitLen(x)
	if n <= b {
		return x
	}
	return x >> uint(n-b)
}
