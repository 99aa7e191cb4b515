package keyhash

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// The multi-buffer backend: two independent one-shot SHA-256 message
// streams interleaved through the CPU's SHA extensions in a single
// assembly loop (sha256block2_amd64.s). A single-stream SHA-NI
// implementation is latency-bound — each SHA256RNDS2 depends on the
// previous one, so the execution port sits idle most cycles. Feeding two
// independent states through the same instruction stream fills those
// bubbles and raises throughput well above 1.5× without changing a
// single digest bit.
//
// The tail-block path: when the padded message is two blocks and the
// value ends inside block 1 (8+len(k)+|V| <= 64 — every value of up to
// 24 bytes under a 32-byte NewKey key), block 2 holds only the key
// tail, 0x80, zeros and the bit length, a function of (k, |V|) alone.
// Such values pair by exact length; sha256block2 hashes block 1 of
// both lanes and sha256tail2 runs block 2 from the length's W+K
// schedule, computed once per kernel and length and cached in
// multiKernel.tails. Longer values, other key lengths, odd leftovers
// and beyond-lane values take the general path, which doubles as the
// equivalence oracle in the tests. Both paths reuse lane buffers: the
// bytes after the value are rewritten only when the value length
// changes.

// cpuid and xgetbv are implemented in cpuid_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv(index uint32) (eax, edx uint32)

// init appends the amd64 backends to the registry in increasing lane
// order: 2-lane SHA-NI, 4-lane SHA-NI, 8-lane AVX2. One init keeps the
// registry order deterministic regardless of file compilation order.
func init() {
	registry = append(registry,
		multiBufferDef(),
		multiBuffer4Def(),
		avx2Def(),
	)
}

func multiBufferDef() *backendDef {
	d := &backendDef{
		kind:      KernelMultiBuffer,
		lanes:     2,
		requires:  "amd64 with SHA-NI, SSSE3, SSE4.1",
		available: func() bool { return hasSHANI },
	}
	d.build = func(k Key) Kernel { return newMultiKernel(k, &d.counters) }
	return d
}

// hasSHANI reports whether the CPU has the SHA extensions plus the
// SSSE3/SSE4.1 shuffles the kernel uses.
var hasSHANI = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const ssse3Bit = 1 << 9  // CPUID.1:ECX.SSSE3
	const sse41Bit = 1 << 19 // CPUID.1:ECX.SSE4.1
	const shaBit = 1 << 29   // CPUID.7.0:EBX.SHA
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&ssse3Bit == 0 || ecx1&sse41Bit == 0 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&shaBit != 0
}()

// sha256block2 runs the SHA-256 compression over two independent
// messages at once: `blocks` 64-byte blocks from p0 are folded into s0
// while the same number from p1 fold into s1. States are plain h[0..7]
// word order (initialize to the IV for a fresh message).
//
//go:noescape
func sha256block2(s0, s1 *[8]uint32, p0, p1 *byte, blocks int)

// sha256IV is the SHA-256 initial state (FIPS 180-4, 5.3.3).
var sha256IV = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// laneBytes is the multi-buffer lane width: up to two SHA-256 blocks,
// message plus mandatory padding.
const laneBytes = 128

// tailSlots bounds the per-value-length schedule cache. A value ends
// inside block 1 only when 8+len(k)+|V| <= 64, so with a non-empty key
// |V| <= 55.
const tailSlots = 64 - 8

// tailWK is the precomputed schedule of a constant second block: the 64
// round words W[i]+K[i], plus two zero pad words because sha256tail2
// loads 16 bytes at an 8-byte stride.
type tailWK [64 + 2]uint32

// sha256tail2 folds one block with the precomputed schedule wk into
// both states (plain h[0..7] word order, like sha256block2).
//
//go:noescape
func sha256tail2(s0, s1 *[8]uint32, wk *uint32)

// multiKernel pairs values into two-lane assembly calls. Immutable and
// safe for concurrent use: per-call scratch is on the stack, and the
// only shared state, the tail schedules, is written once per slot
// through an atomic pointer (two racing callers store equal tables).
type multiKernel struct {
	h      *Hasher
	key    Key
	prefix []byte // len(k) ‖ k
	ctr    *kernelCounters
	// tails caches the block-2 schedule per value length, filled on
	// first use (see tailSchedule).
	tails [tailSlots]atomic.Pointer[tailWK]
}

// newMultiKernel returns the two-lane multi-buffer kernel. The caller
// (the registry) has already checked availability and validated k.
func newMultiKernel(k Key, ctr *kernelCounters) Kernel {
	h, err := k.NewHasher()
	if err != nil {
		panic(fmt.Sprintf("keyhash: multibuffer kernel: %v", err))
	}
	return &multiKernel{h: h, key: k, prefix: h.prefix, ctr: ctr}
}

// paddedBlocks returns the padded block count of the construct for a
// value of vLen bytes — 1 or 2 — or 0 when it exceeds the two-block
// lane (streaming fallback).
func paddedBlocks(prefixLen, keyLen, vLen int) int {
	total := prefixLen + vLen + keyLen
	switch {
	case total+9 <= 64:
		return 1
	case total+9 <= laneBytes:
		return 2
	default:
		return 0
	}
}

// fillPadded assembles the fully padded message len(k) ‖ k ‖ v ‖ k ‖
// 0x80 ‖ 0… ‖ len into a lane buffer, exactly as SHA-256 would pad it.
func fillPadded(buf *[laneBytes]byte, prefix []byte, key Key, v []byte, blocks int) {
	n := copy(buf[:], prefix)
	n += copy(buf[n:], v)
	n += copy(buf[n:], key)
	end := 64 * blocks
	buf[n] = 0x80
	clear(buf[n+1 : end-8])
	binary.BigEndian.PutUint64(buf[end-8:end], uint64(n)*8)
}

// lane is one lane's padded message buffer, the multibuffer kernel's
// incremental form of fillPadded. The prefix len(k) ‖ k is laid out
// once; vLen is the value length the bytes after the value (key, 0x80,
// zeros, bit length) were laid out for, so a value of the same length
// rewrites only its own bytes.
type lane struct {
	buf  [laneBytes]byte
	vLen int
}

func (l *lane) init(prefix []byte) {
	copy(l.buf[:], prefix)
	l.vLen = -1
}

// fillLane lays v into l as the fully padded message len(k) ‖ k ‖ v ‖ k
// ‖ 0x80 ‖ 0… ‖ len of `blocks` blocks, exactly as SHA-256 would pad it.
// The block count follows from len(v) for a fixed key, so vLen alone
// says whether the constant bytes are already in place.
func fillLane(l *lane, prefixLen int, key Key, v []byte, blocks int) {
	n := prefixLen + copy(l.buf[prefixLen:], v)
	if l.vLen == len(v) {
		return
	}
	l.vLen = len(v)
	n += copy(l.buf[n:], key)
	end := 64 * blocks
	l.buf[n] = 0x80
	clear(l.buf[n+1 : end-8])
	binary.BigEndian.PutUint64(l.buf[end-8:end], uint64(n)*8)
}

// tailSchedule returns the W+K schedule of block 2 for values of vLen
// bytes that end inside block 1. That block holds only the key tail,
// the padding and the bit length, so it depends on (k, vLen) alone;
// block2 is the second block of any lane laid out for vLen, used to
// compute the table on first use.
func (m *multiKernel) tailSchedule(vLen int, block2 []byte) *tailWK {
	if wk := m.tails[vLen].Load(); wk != nil {
		return wk
	}
	var w [64]uint32
	for i := 0; i < 16; i++ {
		w[i] = binary.BigEndian.Uint32(block2[4*i:])
	}
	for i := 16; i < 64; i++ {
		s0 := bits.RotateLeft32(w[i-15], -7) ^ bits.RotateLeft32(w[i-15], -18) ^ w[i-15]>>3
		s1 := bits.RotateLeft32(w[i-2], -17) ^ bits.RotateLeft32(w[i-2], -19) ^ w[i-2]>>10
		w[i] = s1 + w[i-7] + s0 + w[i-16]
	}
	wk := new(tailWK)
	for i := range w {
		wk[i] = w[i] + sha256K[i]
	}
	m.tails[vLen].Store(wk)
	return wk
}

// HashColumn pairs values and hashes each pair in one two-lane assembly
// call; see hashBatch2. The digests are bit-identical to
// Hash/HashString in every case.
func (m *multiKernel) HashColumn(data []byte, offs []int32, out []Digest) {
	if len(offs) == 0 {
		return
	}
	m.ctr.tick(len(offs) - 1)
	hashBatch2(m, data, offs, out)
}

// hashBatch2 is the two-lane batching core over a columnar view (value
// i is data[offs[i]:offs[i+1]]).
// Values whose two-block message ends inside block 1 pair by exact
// length: block 1 runs through sha256block2 and block 2 through
// sha256tail2 with the length's shared schedule. Other one- and
// two-block values pair by block count through sha256block2 alone.
// Odd leftovers run through the scalar Hasher; values beyond the lane
// width use the streaming construct.
func hashBatch2(m *multiKernel, data []byte, offs []int32, out []Digest) {
	n := len(offs) - 1
	if n <= 0 {
		return
	}
	_ = out[:n] // one bounds check up front
	pl := len(m.prefix)
	var l0, l1 lane
	l0.init(m.prefix)
	l1.init(m.prefix)
	var pendTail [tailSlots]int   // 1 + pending value index per tail-path length; 0 = none
	pending := [3]int{-1, -1, -1} // other values: pending index per block count
	for i := 0; i < n; i++ {
		v := data[offs[i]:offs[i+1]]
		nb := paddedBlocks(pl, len(m.key), len(v))
		if nb == 0 {
			out[i] = Hash(m.key, v)
			continue
		}
		if nb == 2 && pl+len(v) <= 64 {
			j := pendTail[len(v)] - 1
			if j < 0 {
				pendTail[len(v)] = i + 1
				continue
			}
			pendTail[len(v)] = 0
			fillLane(&l0, pl, m.key, data[offs[j]:offs[j+1]], 2)
			fillLane(&l1, pl, m.key, v, 2)
			wk := m.tailSchedule(len(v), l0.buf[64:])
			s0, s1 := sha256IV, sha256IV
			sha256block2(&s0, &s1, &l0.buf[0], &l1.buf[0], 1)
			sha256tail2(&s0, &s1, &wk[0])
			putDigest(&out[j], &s0)
			putDigest(&out[i], &s1)
			continue
		}
		j := pending[nb]
		if j < 0 {
			pending[nb] = i
			continue
		}
		pending[nb] = -1
		fillLane(&l0, pl, m.key, data[offs[j]:offs[j+1]], nb)
		fillLane(&l1, pl, m.key, v, nb)
		s0, s1 := sha256IV, sha256IV
		sha256block2(&s0, &s1, &l0.buf[0], &l1.buf[0], nb)
		putDigest(&out[j], &s0)
		putDigest(&out[i], &s1)
	}
	for _, j := range pendTail {
		if j > 0 {
			out[j-1] = m.h.Hash(data[offs[j-1]:offs[j]])
		}
	}
	for _, j := range pending[1:] {
		if j >= 0 {
			out[j] = m.h.Hash(data[offs[j]:offs[j+1]])
		}
	}
}

// putDigest serializes a final SHA-256 state into the big-endian digest
// byte order.
func putDigest(d *Digest, s *[8]uint32) {
	for i, w := range s {
		binary.BigEndian.PutUint32(d[4*i:], w)
	}
}

// sha256K is the SHA-256 round constant table (FIPS 180-4, 4.2.2), for
// the Go-side tail schedules; the assembly keeps its own copy.
var sha256K = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}
