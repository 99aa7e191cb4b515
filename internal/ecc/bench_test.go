package ecc

import "testing"

func benchWM() Bits { return MustParseBits("1011001110") }

func BenchmarkMajorityEncode(b *testing.B) {
	wm := benchWM()
	code := MajorityCode{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := code.Encode(wm, 2048); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMajorityDecode(b *testing.B) {
	wm := benchWM()
	code := MajorityCode{}
	data, err := code.Encode(wm, 2048)
	if err != nil {
		b.Fatal(err)
	}
	// Corrupt a third of the positions so decoding does real vote work.
	for i := 0; i < len(data); i += 3 {
		data[i] ^= 1
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := code.Decode(data, len(wm)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHammingDistance(b *testing.B) {
	x := make(Bits, 4096)
	y := make(Bits, 4096)
	for i := range y {
		y[i] = uint8(i & 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = HammingDistance(x, y)
	}
}
