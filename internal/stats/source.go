// Package stats provides the statistical substrate for the watermarking
// system: a deterministic keyed pseudorandom source (used by the data
// generator and the attack suite so every experiment is reproducible from a
// string seed), samplers (uniform, Zipf), the normal and binomial
// distribution mathematics behind the Section 4.4 vulnerability analysis,
// and histogram tooling for the Section 4.2 frequency-domain channel.
package stats

import (
	"crypto/sha256"
	"encoding/binary"
)

// Source is a deterministic pseudorandom source built from SHA-256 in
// counter mode. Unlike math/rand it is stable across Go releases and
// platforms, which matters because experiment outputs (EXPERIMENTS.md) must
// be regenerable bit-for-bit from the recorded seeds.
type Source struct {
	key     [32]byte
	counter uint64
	buf     [32]byte
	pos     int // next unread byte in buf; len(buf) means exhausted
}

// NewSource creates a Source from a string seed.
func NewSource(seed string) *Source {
	s := &Source{key: sha256.Sum256([]byte("catwm-src-v1:" + seed))}
	s.pos = len(s.buf)
	return s
}

// Fork derives an independent child source. Streams drawn from the child
// are statistically independent of the parent's for distinct labels, which
// lets one experiment seed fan out to per-pass, per-attack sub-streams.
func (s *Source) Fork(label string) *Source {
	h := sha256.New()
	h.Write(s.key[:])
	h.Write([]byte("/fork/"))
	h.Write([]byte(label))
	var child Source
	h.Sum(child.key[:0])
	child.pos = len(child.buf)
	return &child
}

func (s *Source) refill() {
	var block [40]byte
	copy(block[:32], s.key[:])
	binary.BigEndian.PutUint64(block[32:], s.counter)
	s.counter++
	s.buf = sha256.Sum256(block[:])
	s.pos = 0
}

// Uint64 returns the next 64 pseudorandom bits.
func (s *Source) Uint64() uint64 {
	if s.pos+8 > len(s.buf) {
		s.refill()
	}
	v := binary.BigEndian.Uint64(s.buf[s.pos : s.pos+8])
	s.pos += 8
	return v
}

// Intn returns a uniform integer in [0, n). n must be positive.
// Rejection sampling removes modulo bias.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn requires n > 0")
	}
	un := uint64(n)
	max := (^uint64(0) / un) * un
	for {
		v := s.Uint64()
		if v < max {
			return int(v % un)
		}
	}
}

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bit returns a uniform bit as 0 or 1.
func (s *Source) Bit() uint8 {
	return uint8(s.Uint64() & 1)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Perm returns a uniform permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.ShuffleInts(p)
	return p
}

// ShuffleInts performs a Fisher–Yates shuffle of p in place.
func (s *Source) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle performs a Fisher–Yates shuffle using the provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in
// selection order. It uses a partial Fisher–Yates so it is O(n) memory but
// O(k) swaps. k must satisfy 0 <= k <= n.
func (s *Source) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("stats: Sample requires 0 <= k <= n")
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
