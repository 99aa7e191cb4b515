package ecc

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func allCodes() []Code {
	return []Code{MajorityCode{}, BlockMajorityCode{}, IdentityCode{}}
}

func TestEncodeDecodeIdentityNoNoise(t *testing.T) {
	wm := MustParseBits("1011001110")
	for _, code := range allCodes() {
		for _, outLen := range []int{10, 37, 100, 1000} {
			data, err := code.Encode(wm, outLen)
			if err != nil {
				t.Fatalf("%s/%d: %v", code.Name(), outLen, err)
			}
			if len(data) != outLen {
				t.Fatalf("%s: encoded length %d, want %d", code.Name(), len(data), outLen)
			}
			got, err := code.Decode(data, len(wm))
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != wm.String() {
				t.Errorf("%s/%d: round trip %s -> %s", code.Name(), outLen, wm, got)
			}
		}
	}
}

func TestEncodeArgValidation(t *testing.T) {
	for _, code := range allCodes() {
		if _, err := code.Encode(Bits{}, 10); err == nil {
			t.Errorf("%s: empty wm accepted", code.Name())
		}
		if _, err := code.Encode(MustParseBits("1010"), 3); err == nil {
			t.Errorf("%s: insufficient bandwidth accepted", code.Name())
		}
		if _, err := code.Encode(Bits{Zero, Erased}, 10); err == nil {
			t.Errorf("%s: erased wm bit accepted", code.Name())
		}
	}
}

func TestDecodeArgValidation(t *testing.T) {
	for _, code := range allCodes() {
		if _, err := code.Decode(make(Bits, 4), 0); err == nil {
			t.Errorf("%s: zero wmLen accepted", code.Name())
		}
		if _, err := code.Decode(make(Bits, 4), 5); err == nil {
			t.Errorf("%s: short data accepted", code.Name())
		}
		if _, err := code.Decode(Bits{9}, 1); err == nil {
			t.Errorf("%s: invalid data bit accepted", code.Name())
		}
	}
}

// Majority codes must correct any corruption touching a strict minority of
// each bit's replicas.
func TestMajorityCorrectsMinorityFlips(t *testing.T) {
	wm := MustParseBits("10110")
	for _, code := range []Code{MajorityCode{}, BlockMajorityCode{}} {
		data, err := code.Encode(wm, 50) // 10 replicas per bit
		if err != nil {
			t.Fatal(err)
		}
		// Flip 4 of the 10 replicas of every bit.
		corrupted := data.Clone()
		flipped := make(map[int]int) // wm bit -> flips so far
		for i := range corrupted {
			var g int
			switch code.(type) {
			case MajorityCode:
				g = i % len(wm)
			default:
				g = i * len(wm) / len(corrupted)
			}
			if flipped[g] < 4 {
				corrupted[i] ^= 1
				flipped[g]++
			}
		}
		got, err := code.Decode(corrupted, len(wm))
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != wm.String() {
			t.Errorf("%s: minority flips not corrected: %s -> %s", code.Name(), wm, got)
		}
	}
}

func TestMajorityFailsUnderMajorityFlips(t *testing.T) {
	wm := MustParseBits("10110")
	code := MajorityCode{}
	data, _ := code.Encode(wm, 50)
	for i := range data {
		data[i] ^= 1 // flip everything
	}
	got, _ := code.Decode(data, len(wm))
	if HammingDistance(got, wm) != len(wm) {
		t.Errorf("total inversion should flip all bits: %s -> %s", wm, got)
	}
}

func TestMajorityHandlesErasures(t *testing.T) {
	wm := MustParseBits("1100")
	code := MajorityCode{}
	data, _ := code.Encode(wm, 40)
	// Erase 70% of positions: survivors still vote correctly.
	src := stats.NewSource("erasure-test")
	for _, i := range src.Sample(len(data), 28) {
		data[i] = Erased
	}
	got, err := code.Decode(data, len(wm))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != wm.String() {
		t.Errorf("erasures broke decode: %s -> %s", wm, got)
	}
}

func TestMajorityAllErasedUsesDefault(t *testing.T) {
	for _, def := range []uint8{Zero, One} {
		code := MajorityCode{DefaultBit: def}
		got, err := code.Decode(NewErased(20), 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range got {
			if b != def {
				t.Errorf("default %d: bit %d = %d", def, i, b)
			}
		}
	}
}

func TestVoteTallyWinnerAndMargin(t *testing.T) {
	cases := []struct {
		v      VoteTally
		def    uint8
		want   uint8
		margin float64
	}{
		{VoteTally{Zeros: 3, Ones: 7}, Zero, One, 0.4},
		{VoteTally{Zeros: 7, Ones: 3}, One, Zero, 0.4},
		{VoteTally{Zeros: 5, Ones: 5}, One, One, 0},
		{VoteTally{Erasures: 10}, Zero, Zero, 0},
	}
	for _, c := range cases {
		if got := c.v.Winner(c.def); got != c.want {
			t.Errorf("Winner(%+v) = %d, want %d", c.v, got, c.want)
		}
		if got := c.v.Margin(); got != c.margin {
			t.Errorf("Margin(%+v) = %v, want %v", c.v, got, c.margin)
		}
	}
}

// Property: for every code, encode→decode with no corruption is identity,
// for random watermarks and bandwidths.
func TestRoundTripProperty(t *testing.T) {
	src := stats.NewSource("ecc-prop")
	f := func(wmLenRaw, extraRaw uint8) bool {
		wmLen := int(wmLenRaw%32) + 1
		outLen := wmLen + int(extraRaw)
		wm := make(Bits, wmLen)
		for i := range wm {
			wm[i] = src.Bit()
		}
		for _, code := range allCodes() {
			data, err := code.Encode(wm, outLen)
			if err != nil {
				return false
			}
			got, err := code.Decode(data, wmLen)
			if err != nil {
				return false
			}
			if HammingDistance(got, wm) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: interleaved majority tolerates random flips below ~half of
// replicas with overwhelming experimental likelihood. We check a weaker,
// deterministic bound: flipping < replicas/2 positions in total can change
// at most the bits whose replica groups were hit by a majority, which for
// < replicas/2 total flips is none.
func TestMajorityDeterministicGuarantee(t *testing.T) {
	wm := MustParseBits("101100111000")
	code := MajorityCode{}
	const reps = 9
	data, _ := code.Encode(wm, len(wm)*reps)
	// Any flip pattern touching at most (reps-1)/2 = 4 replicas of each
	// group cannot change the outcome. Build the worst such pattern.
	corrupted := data.Clone()
	for g := 0; g < len(wm); g++ {
		for k := 0; k < (reps-1)/2; k++ {
			corrupted[g+k*len(wm)] ^= 1
		}
	}
	got, _ := code.Decode(corrupted, len(wm))
	if got.String() != wm.String() {
		t.Fatalf("guaranteed-correctable pattern failed: %s -> %s", wm, got)
	}
}

func TestIdentityCodeNoResilience(t *testing.T) {
	wm := MustParseBits("1010")
	code := IdentityCode{}
	data, _ := code.Encode(wm, 40)
	data[0] ^= 1 // single flip in the information region
	got, _ := code.Decode(data, len(wm))
	if HammingDistance(got, wm) == 0 {
		t.Fatal("identity code should not correct anything")
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil || c.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := ByName("reed-solomon"); err == nil {
		t.Error("unknown code accepted")
	}
}
