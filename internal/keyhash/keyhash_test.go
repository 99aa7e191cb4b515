package keyhash

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewKeyDeterministic(t *testing.T) {
	a := NewKey("alpha")
	b := NewKey("alpha")
	if a.String() != b.String() {
		t.Fatalf("NewKey not deterministic: %s vs %s", a, b)
	}
	c := NewKey("beta")
	if a.String() == c.String() {
		t.Fatalf("distinct passphrases produced identical keys")
	}
}

func TestNewKeyFullWidth(t *testing.T) {
	if got := len(NewKey("x")); got != 32 {
		t.Fatalf("derived key length = %d, want 32", got)
	}
}

func TestKeyValidate(t *testing.T) {
	if err := Key(nil).Validate(); err != ErrEmptyKey {
		t.Fatalf("empty key Validate = %v, want ErrEmptyKey", err)
	}
	if err := NewKey("ok").Validate(); err != nil {
		t.Fatalf("valid key Validate = %v, want nil", err)
	}
}

func TestHashDeterministic(t *testing.T) {
	k := NewKey("secret")
	d1 := HashString(k, "Chicago")
	d2 := HashString(k, "Chicago")
	if d1 != d2 {
		t.Fatal("hash not deterministic")
	}
}

func TestHashKeyDependence(t *testing.T) {
	d1 := HashString(NewKey("k1"), "Chicago")
	d2 := HashString(NewKey("k2"), "Chicago")
	if d1 == d2 {
		t.Fatal("different keys produced identical digests")
	}
}

func TestHashValueDependence(t *testing.T) {
	k := NewKey("secret")
	if HashString(k, "Chicago") == HashString(k, "San Jose") {
		t.Fatal("different values produced identical digests")
	}
}

// The length prefix must prevent boundary-shifting collisions between
// (key, value) splits of the same byte stream.
func TestHashBoundaryUnambiguous(t *testing.T) {
	d1 := Hash(Key("ab"), []byte("cd"))
	d2 := Hash(Key("abc"), []byte("d"))
	if d1 == d2 {
		t.Fatal("boundary shift produced a collision")
	}
	// And the trailing key bracket must matter too.
	d3 := Hash(Key("ab"), []byte("cdab"))
	if d1 == d3 {
		t.Fatal("trailing bracket ignored")
	}
}

func TestDigestUint64At(t *testing.T) {
	d := HashString(NewKey("k"), "v")
	words := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		words[d.Uint64At(i)] = true
	}
	if len(words) != 4 {
		t.Fatalf("expected 4 distinct digest words, got %d", len(words))
	}
	if d.Uint64At(0) != d.Uint64() {
		t.Fatal("Uint64At(0) should equal Uint64()")
	}
}

func TestDigestUint64AtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range word index")
		}
	}()
	var d Digest
	d.Uint64At(4)
}

func TestModPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero modulus")
		}
	}()
	var d Digest
	d.Mod(0)
}

// Fitness should select roughly 1/e of keys (Section 3.2.1 footnote 1).
func TestFitnessRate(t *testing.T) {
	k := NewKey("fit-rate")
	const n = 20000
	for _, e := range []uint64{10, 60, 100} {
		fit := 0
		for i := 0; i < n; i++ {
			if FitKey(k, itoa(i), e) {
				fit++
			}
		}
		want := float64(n) / float64(e)
		got := float64(fit)
		if math.Abs(got-want) > 4*math.Sqrt(want) {
			t.Errorf("e=%d: fit count %d, want ~%.0f (±4σ)", e, fit, want)
		}
	}
}

// Fitness under two different keys must be (near) independent: the fit sets
// should overlap at about rate 1/e², not systematically.
func TestFitnessKeyIndependence(t *testing.T) {
	k1, k2 := NewKey("one"), NewKey("two")
	const n, e = 30000, 10
	both := 0
	for i := 0; i < n; i++ {
		v := itoa(i)
		if FitKey(k1, v, e) && FitKey(k2, v, e) {
			both++
		}
	}
	want := float64(n) / float64(e*e)
	if math.Abs(float64(both)-want) > 5*math.Sqrt(want) {
		t.Errorf("joint fit count %d, want ~%.0f", both, want)
	}
}

func TestFitPanicsOnZeroE(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for e=0")
		}
	}()
	var d Digest
	Fit(d, 0)
}

// Property: fitness is a pure function of (key, value, e).
func TestFitnessDeterminismProperty(t *testing.T) {
	k := NewKey("prop")
	f := func(v string, e8 uint8) bool {
		e := uint64(e8)%200 + 1
		return FitKey(k, v, e) == FitKey(k, v, e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: digests behave like a uniform 64-bit source — the low bit is
// unbiased across sequential values.
func TestDigestLowBitBalance(t *testing.T) {
	k := NewKey("balance")
	const n = 20000
	ones := 0
	for i := 0; i < n; i++ {
		ones += int(HashString(k, itoa(i)).Uint64() & 1)
	}
	if math.Abs(float64(ones)-n/2) > 4*math.Sqrt(n/4) {
		t.Errorf("low-bit ones = %d out of %d, biased", ones, n)
	}
}

func itoa(i int) string {
	// Local tiny formatter to keep the hot loops allocation-obvious.
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	neg := i < 0
	if neg {
		i = -i
	}
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		pos--
		buf[pos] = '-'
	}
	return string(buf[pos:])
}

// TestFitCheckMatchesMod is the exactness property of the precomputed
// divisibility test: over odd, even, power-of-two and extreme moduli
// and over random words, multiples of e and multiples plus one (the
// words either side of every boundary the test could get wrong),
// FitCheck.Fit agrees with Digest.Mod(e) == 0.
func TestFitCheckMatchesMod(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	es := []uint64{1, 2, 3, 60, 64, 65, 70, 75, 96, 1 << 40, 1 << 63, math.MaxUint64}
	digest := func(x uint64) Digest {
		var d Digest
		binary.BigEndian.PutUint64(d[:8], x)
		rng.Read(d[8:])
		return d
	}
	for _, e := range es {
		fc := NewFitCheck(e)
		words := []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1, e, e - 1, e + 1}
		for i := 0; i < 2000; i++ {
			m := rng.Uint64() / e * e // a random multiple of e
			words = append(words, rng.Uint64(), m, m+1)
		}
		for _, x := range words {
			d := digest(x)
			if got, want := fc.Fit(d), d.Mod(e) == 0; got != want {
				t.Fatalf("e=%d x=%d: FitCheck.Fit = %v, Mod(e)==0 is %v", e, x, got, want)
			}
			if fc.Fit(d) != Fit(d, e) {
				t.Fatalf("e=%d x=%d: FitCheck.Fit disagrees with Fit", e, x)
			}
		}
	}
}
