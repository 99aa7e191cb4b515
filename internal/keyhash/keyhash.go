// Package keyhash implements the keyed one-way hash construct and the bit
// manipulation notation of Sion, "Proving Ownership over Categorical Data"
// (ICDE 2004), Section 2.
//
// The paper defines H(V;k) = crypto_hash(k ; V ; k) where ";" denotes
// concatenation, and relies on the one-wayness of the hash to defeat
// court-time exhaustive key-search claims (Section 2.2). The paper suggests
// MD5 or SHA; this implementation uses SHA-256, the modern standard-library
// equivalent, since the scheme requires only one-wayness and pseudorandomness
// of a keyed digest.
//
// A tuple T is "fit" for watermark encoding iff H(T(K);k1) mod e == 0
// (Section 3.2.1); Fit implements exactly that predicate.
package keyhash

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Key is a secret watermarking key. The paper prescribes a
// max(b(N), b(A))-bit key; any non-empty byte string is accepted here and
// mixed into the digest whole.
type Key []byte

// ErrEmptyKey is returned by validation helpers when a key has no bytes.
// An empty key would make the "secret criteria" of the fitness test public.
var ErrEmptyKey = errors.New("keyhash: empty key")

// NewKey derives a Key from an arbitrary passphrase. The passphrase is
// hashed so that short human-chosen strings still yield full-entropy-width
// key material for the concatenation construct.
func NewKey(passphrase string) Key {
	sum := sha256.Sum256([]byte("catwm-key-v1:" + passphrase))
	return Key(sum[:])
}

// Validate reports whether the key is usable.
func (k Key) Validate() error {
	if len(k) == 0 {
		return ErrEmptyKey
	}
	return nil
}

// String renders the key as hex, for logging. Secret material is the
// caller's responsibility; this is provided for diagnostics in examples.
func (k Key) String() string {
	return hex.EncodeToString(k)
}

// Digest is the output of the keyed hash H(V;k).
type Digest [sha256.Size]byte

// Hash computes H(V;k) = SHA-256(len(k) ‖ k ‖ V ‖ k). The key is bracketed
// around the value exactly as in the paper's construct; the length prefix
// removes any ambiguity between key and value bytes so distinct (k, V)
// pairs can never collide by boundary shifting.
func Hash(k Key, v []byte) Digest {
	h := sha256.New()
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(k)))
	h.Write(lenBuf[:])
	h.Write(k)
	h.Write(v)
	h.Write(k)
	var d Digest
	h.Sum(d[:0])
	return d
}

// HashString is Hash over the UTF-8 bytes of v.
func HashString(k Key, v string) Digest {
	return Hash(k, []byte(v))
}

// Uint64 returns the most significant 8 bytes of the digest as a uint64.
// All pseudorandom decisions in the watermarking algorithms (fitness,
// value-index selection, bit-position selection) are derived from this view.
func (d Digest) Uint64() uint64 {
	return binary.BigEndian.Uint64(d[:8])
}

// Uint64At returns the i-th consecutive 8-byte word of the digest as a
// uint64, for callers that need several independent pseudorandom draws from
// a single hash invocation. i must be in [0, 4).
func (d Digest) Uint64At(i int) uint64 {
	if i < 0 || i >= sha256.Size/8 {
		panic(fmt.Sprintf("keyhash: word index %d out of range [0,4)", i))
	}
	return binary.BigEndian.Uint64(d[8*i : 8*i+8])
}

// Mod reduces the digest's 64-bit view modulo m. m must be positive.
func (d Digest) Mod(m uint64) uint64 {
	if m == 0 {
		panic("keyhash: modulus must be positive")
	}
	return d.Uint64() % m
}

// Fit reports whether a digest satisfies the paper's fitness criterion
// H(T(K);k1) mod e == 0. On average one in every e hashed keys is fit, so e
// controls the embedding-bandwidth / data-alteration trade-off
// (Section 4.4).
func Fit(d Digest, e uint64) bool {
	if e == 0 {
		panic("keyhash: fitness parameter e must be positive")
	}
	return d.Mod(e) == 0
}

// FitCheck is Fit for one fixed e with the division replaced by a
// multiply, for loops that test many digests against the same e. With
// e = d·2^t and d odd, a word x is a multiple of e iff
// rotr(x·d⁻¹ mod 2^64, t) <= ⌊(2^64−1)/e⌋: multiplying by the inverse
// maps the multiples of d one-to-one onto [0, ⌊(2^64−1)/d⌋], and the
// rotation sends every word with a nonzero low t bits above that range
// (Hacker's Delight, 2nd ed., section 10-17). The test is exact for
// every uint64, so FitCheck.Fit(d) == Fit(d, e) always.
type FitCheck struct {
	inv   uint64 // d⁻¹ mod 2^64
	shift int    // t
	limit uint64 // ⌊(2^64−1)/e⌋
}

// NewFitCheck precomputes the divisibility constants of e. e must be
// positive.
func NewFitCheck(e uint64) FitCheck {
	if e == 0 {
		panic("keyhash: fitness parameter e must be positive")
	}
	t := bits.TrailingZeros64(e)
	d := e >> t
	// Newton's iteration for the inverse of an odd d modulo 2^64:
	// inv = d is right in the low 3 bits (d² ≡ 1 mod 8), and each step
	// doubles the number of correct bits.
	inv := d
	for i := 0; i < 5; i++ {
		inv *= 2 - d*inv
	}
	return FitCheck{inv: inv, shift: t, limit: math.MaxUint64 / e}
}

// Fit reports whether d satisfies the fitness criterion for the
// FitCheck's e.
func (f FitCheck) Fit(d Digest) bool {
	return bits.RotateLeft64(d.Uint64()*f.inv, -f.shift) <= f.limit
}

// FitKey is a convenience composing HashString and Fit for a tuple's
// primary-key value.
func FitKey(k Key, keyValue string, e uint64) bool {
	return Fit(HashString(k, keyValue), e)
}
