package keyhash

import (
	"encoding/binary"
	"testing"
)

// refK holds the SHA-256 round constants K0–K9 (FIPS 180-4, 4.2.2).
var refK = [10]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01,
}

func rotr(x uint32, n uint) uint32 { return x>>n | x<<(32-n) }

// refRounds runs SHA-256 rounds 0 through r-1 (r <= 10) of one message
// block from state s, written out from FIPS 180-4, 6.2.2 step 3.
func refRounds(s [8]uint32, block []byte, r int) [8]uint32 {
	a, b, c, d, e, f, g, h := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
	for t := 0; t < r; t++ {
		wt := binary.BigEndian.Uint32(block[4*t:])
		bigSigma1 := rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)
		ch := (e & f) ^ (^e & g)
		t1 := h + bigSigma1 + ch + refK[t] + wt
		bigSigma0 := rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)
		maj := (a & b) ^ (a & c) ^ (b & c)
		t2 := bigSigma0 + maj
		h = g
		g = f
		f = e
		e = d + t1
		d = c
		c = b
		b = a
		a = t1 + t2
	}
	return [8]uint32{a, b, c, d, e, f, g, h}
}

// TestMidstateMatchesRounds checks the per-key constants the two-lane
// call enters block 1 with against a plain reference: the state after
// rounds 0–9 over len(k) ‖ k (in SHA-NI working order), W0–W7 after
// SHA256MSG1 (Wi + σ0(Wi+1)) and W8–W9. Keys shorter than 32 bytes get
// none.
func TestMidstateMatchesRounds(t *testing.T) {
	iv := [8]uint32{
		0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
		0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
	}
	sigma0 := func(x uint32) uint32 { return rotr(x, 7) ^ rotr(x, 18) ^ x>>3 }
	keys := []Key{NewKey("midstate-a"), NewKey("midstate-b"), NewKey(""), NewKey("owner-7")}
	long := make(Key, 40)
	for i := range long {
		long[i] = byte(3*i + 1)
	}
	keys = append(keys, long)
	for ki, k := range keys {
		m := newMultiKernel(k, new(kernelCounters)).(*multiKernel)
		if m.mid == nil {
			t.Fatalf("key %d (%d bytes): no midstate", ki, len(k))
		}
		var block [64]byte
		binary.BigEndian.PutUint64(block[:8], uint64(len(k)))
		copy(block[8:], k)
		s := refRounds(iv, block[:], 10)
		a, b, c, d, e, f, g, h := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
		if want := [4]uint32{f, e, b, a}; m.mid.abef != want {
			t.Errorf("key %d: ABEF after round 9 = %08x, want %08x", ki, m.mid.abef, want)
		}
		if want := [4]uint32{h, g, d, c}; m.mid.cdgh != want {
			t.Errorf("key %d: CDGH after round 9 = %08x, want %08x", ki, m.mid.cdgh, want)
		}
		var w [10]uint32
		for i := range w {
			w[i] = binary.BigEndian.Uint32(block[4*i:])
		}
		for i := 0; i < 4; i++ {
			if want := w[i] + sigma0(w[i+1]); m.mid.m0[i] != want {
				t.Errorf("key %d: MSG1 word %d = %08x, want %08x", ki, i, m.mid.m0[i], want)
			}
			if want := w[4+i] + sigma0(w[5+i]); m.mid.m4[i] != want {
				t.Errorf("key %d: MSG1 word %d = %08x, want %08x", ki, 4+i, m.mid.m4[i], want)
			}
		}
		if want := [2]uint32{w[8], w[9]}; m.mid.w8 != want {
			t.Errorf("key %d: W8, W9 = %08x, want %08x", ki, m.mid.w8, want)
		}
	}
	if m := newMultiKernel(Key("short"), new(kernelCounters)).(*multiKernel); m.mid != nil {
		t.Fatal("5-byte key: want no midstate")
	}
}
