package ecc

import (
	"testing"
	"testing/quick"
)

func TestParseBitsRoundTrip(t *testing.T) {
	for _, s := range []string{"", "0", "1", "1010", "1?0?1"} {
		b, err := ParseBits(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if b.String() != s {
			t.Errorf("round trip %q -> %q", s, b.String())
		}
	}
}

func TestParseBitsInvalid(t *testing.T) {
	if _, err := ParseBits("10a1"); err == nil {
		t.Fatal("invalid character accepted")
	}
}

func TestMustParseBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParseBits("2")
}

func TestFromUint64(t *testing.T) {
	cases := []struct {
		v    uint64
		n    int
		want string
	}{
		{0b1011, 4, "1011"},
		{0b1011, 6, "001011"},
		{0, 3, "000"},
		{0b1, 1, "1"},
		{^uint64(0), 8, "11111111"},
	}
	for _, c := range cases {
		if got := FromUint64(c.v, c.n).String(); got != c.want {
			t.Errorf("FromUint64(%b,%d) = %s, want %s", c.v, c.n, got, c.want)
		}
	}
}

func TestUint64RoundTrip(t *testing.T) {
	f := func(v uint64, n8 uint8) bool {
		n := int(n8%64) + 1
		masked := v & ((1 << uint(n)) - 1)
		return FromUint64(masked, n).Uint64() == masked
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64ErasedReadsZero(t *testing.T) {
	b := MustParseBits("1?1")
	if got := b.Uint64(); got != 0b101 {
		t.Fatalf("got %b, want 101", got)
	}
}

func TestUint64PanicsTooLong(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	make(Bits, 65).Uint64()
}

func TestNewErased(t *testing.T) {
	b := NewErased(4)
	if b.String() != "????" {
		t.Fatalf("got %s", b.String())
	}
}

func TestValidate(t *testing.T) {
	good := Bits{Zero, One, Erased}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Bits{Zero, 7}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid value accepted")
	}
}

func TestHammingDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1010", "1010", 0},
		{"1010", "0101", 4},
		{"111", "110", 1},
		{"1?0", "1?0", 0}, // matching erasures equal
		{"1?0", "110", 1}, // erasure differs from a bit
		{"", "", 0},
	}
	for _, c := range cases {
		got := HammingDistance(MustParseBits(c.a), MustParseBits(c.b))
		if got != c.want {
			t.Errorf("Hamming(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHammingDistancePanicsMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HammingDistance(make(Bits, 3), make(Bits, 4))
}

func TestAlterationRate(t *testing.T) {
	if got := AlterationRate(MustParseBits("1111"), MustParseBits("1100")); got != 0.5 {
		t.Fatalf("rate = %v, want 0.5", got)
	}
	if got := AlterationRate(Bits{}, Bits{}); got != 0 {
		t.Fatalf("empty rate = %v", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := MustParseBits("101")
	b := a.Clone()
	b[0] = Zero
	if a[0] != One {
		t.Fatal("clone aliased storage")
	}
}

// FromUint64 and Clone are test helpers: the inverse of Bits.Uint64, and
// an independent copy of a bit string.

// FromUint64 returns the low n bits of v, most significant first.
func FromUint64(v uint64, n int) Bits {
	if n < 0 || n > 64 {
		panic("ecc: bit width out of range [0,64]")
	}
	b := make(Bits, n)
	for i := 0; i < n; i++ {
		b[i] = uint8((v >> uint(n-1-i)) & 1)
	}
	return b
}

// Clone returns an independent copy.
func (b Bits) Clone() Bits { return append(Bits(nil), b...) }
