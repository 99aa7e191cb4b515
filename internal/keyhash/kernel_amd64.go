package keyhash

import (
	"encoding/binary"
	"math/bits"
)

// The multi-buffer backend: two independent one-shot SHA-256 message
// streams interleaved through the CPU's SHA extensions in a single
// assembly call (sha256block2_amd64.s). A single-stream SHA-NI
// implementation is latency-bound — each SHA256RNDS2 depends on the
// previous one, so the execution port sits idle most cycles. Feeding two
// independent states through the same instruction stream fills those
// bubbles and raises throughput well above 1.5× without changing a
// single digest bit.
//
// Values pair by padded block count, and each pair is one call that
// runs both messages to their digests. Under a key of 32 bytes or more
// (every NewKey key) the first 40 message bytes len(k) ‖ k are key-only,
// so rounds 0–9 of block 1 and the schedule words W0–W9 are per-key
// constants (keyMidstate, computed once in newMultiKernel), and each
// call enters block 1 at round 10. An odd leftover runs in both lanes of
// one call; values beyond the two-block lane use the streaming
// construct.
//
// A lane buffer is laid out in full only when the value length changes.
// A value of the lane's last length rewrites only its own bytes, as
// whole 8-byte words at 8-byte-aligned offsets (putValue), and the
// assembly loads the message in 8-byte halves: every load then forwards
// from one store instead of stalling on a wider load across narrower
// stores.

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

// sha256block2 hashes two fully padded messages of `blocks` (>= 1)
// 64-byte blocks, p0 into d0 and p1 into d1, in one interleaved
// instruction stream, and stores both digests big-endian. With mid nil
// both messages start from the IV at round 0; with mid set, block 1
// starts at round 10 from it and bytes 0–39 of p0 and p1 are not read.
// p0 may equal p1.
//
//go:noescape
func sha256block2(d0, d1 *Digest, p0, p1 *byte, mid *keyMidstate, blocks int)

// sha256IV is the SHA-256 initial state (FIPS 180-4, 5.3.3).
var sha256IV = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// laneBytes is the multi-buffer lane width: up to two SHA-256 blocks,
// message plus mandatory padding.
const laneBytes = 128

// keyMidstate is what a key of 32 bytes or more fixes in block 1: the
// message opens with the 40 key-only bytes len(k) ‖ k, words W0–W9, so
// rounds 0–9 and the SHA256MSG1 steps over W0–W8 read nothing else.
// Every message under such a key is two blocks. The assembly reads the
// fields by offset.
type keyMidstate struct {
	abef, cdgh [4]uint32 // state after round 9, SHA-NI working order
	m0, m4     [4]uint32 // W0–3 and W4–7 after SHA256MSG1: Wi + σ0(Wi+1)
	w8         [2]uint32 // W8, W9
}

// newKeyMidstate runs SHA-256 rounds 0–9 over the first 40 bytes of
// prefix (len(k) ‖ k, at least that long).
func newKeyMidstate(prefix []byte) *keyMidstate {
	var w [10]uint32
	for i := range w {
		w[i] = binary.BigEndian.Uint32(prefix[4*i:])
	}
	a, b, c, d := sha256IV[0], sha256IV[1], sha256IV[2], sha256IV[3]
	e, f, g, h := sha256IV[4], sha256IV[5], sha256IV[6], sha256IV[7]
	for i, wi := range w {
		t1 := h + (bits.RotateLeft32(e, -6) ^ bits.RotateLeft32(e, -11) ^ bits.RotateLeft32(e, -25)) +
			(e&f ^ ^e&g) + sha256K[i] + wi
		t2 := (bits.RotateLeft32(a, -2) ^ bits.RotateLeft32(a, -13) ^ bits.RotateLeft32(a, -22)) +
			(a&b ^ a&c ^ b&c)
		h, g, f, e, d, c, b, a = g, f, e, d+t1, c, b, a, t1+t2
	}
	sigma0 := func(x uint32) uint32 {
		return bits.RotateLeft32(x, -7) ^ bits.RotateLeft32(x, -18) ^ x>>3
	}
	ms := &keyMidstate{
		abef: [4]uint32{f, e, b, a},
		cdgh: [4]uint32{h, g, d, c},
		w8:   [2]uint32{w[8], w[9]},
	}
	for i := 0; i < 4; i++ {
		ms.m0[i] = w[i] + sigma0(w[i+1])
		ms.m4[i] = w[4+i] + sigma0(w[5+i])
	}
	return ms
}

// multiKernel pairs values into two-lane assembly calls. Immutable and
// safe for concurrent use: per-call scratch is on the stack.
type multiKernel struct {
	key    Key
	prefix []byte       // len(k) ‖ k
	mid    *keyMidstate // nil when the key is shorter than 32 bytes
	ctr    *kernelCounters
}

// newMultiKernel returns the two-lane multi-buffer kernel. The caller
// (the registry) has already checked availability and validated k.
func newMultiKernel(k Key, ctr *kernelCounters) Kernel {
	prefix := binary.BigEndian.AppendUint64(make([]byte, 0, 8+len(k)), uint64(len(k)))
	prefix = append(prefix, k...)
	m := &multiKernel{key: k, prefix: prefix, ctr: ctr}
	if len(prefix) >= 40 {
		m.mid = newKeyMidstate(prefix)
	}
	return m
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

// lane is one lane's padded message buffer. vLen is the value length
// the whole buffer was last laid out for (-1: never), which fixes every
// byte but the value's own.
type lane struct {
	buf  [laneBytes]byte
	vLen int
}

// fill lays value i of the column (data, offs) into l as the fully
// padded message of `blocks` blocks. A value of the lane's last length
// rewrites only its own bytes, through putValue; any other length lays
// out the whole buffer.
func (m *multiKernel) fill(l *lane, data []byte, offs []int32, i, blocks int) {
	lo, hi := int(offs[i]), int(offs[i+1])
	if l.vLen == hi-lo {
		putValue(&l.buf, len(m.prefix), data[lo:], hi-lo)
		return
	}
	l.vLen = hi - lo
	fillPadded(&l.buf, m.prefix, m.key, data[lo:hi], blocks)
}

// putValue writes the value rest[:vLen] into buf at offset off as whole
// 8-byte words at 8-byte-aligned offsets, keeping the buffer bytes that
// share a word with either end of the value. rest may run on past the
// value (it is the column arena from the value on): the extra bytes let
// an end word load in one piece, and putPart's mask drops them.
func putValue(buf *[laneBytes]byte, off int, rest []byte, vLen int) {
	w, end := off&^7, off+vLen
	if w < off {
		putPart(buf, w, off, min(w+8, end), load64(rest))
		w += 8
	}
	for ; w+8 <= end; w += 8 {
		binary.LittleEndian.PutUint64(buf[w:], binary.LittleEndian.Uint64(rest[w-off:]))
	}
	if w < end {
		putPart(buf, w, w, end, load64(rest[w-off:]))
	}
}

// putPart stores the word at buf[w:] with its bytes [lo, hi) taken from
// the low hi-lo bytes of x and the rest kept.
func putPart(buf *[laneBytes]byte, w, lo, hi int, x uint64) {
	sh := 8 * uint(lo-w)
	mask := ^uint64(0) >> (64 - 8*uint(hi-lo)) << sh
	binary.LittleEndian.PutUint64(buf[w:], binary.LittleEndian.Uint64(buf[w:])&^mask|x<<sh&mask)
}

// load64 reads the first 8 bytes of b, or all of a shorter b, as a
// little-endian word.
func load64(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var x uint64
	for i, c := range b {
		x |= uint64(c) << (8 * i)
	}
	return x
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
// i is data[offs[i]:offs[i+1]]). Each value pairs with the next one of
// the same padded block count, and the pair runs in one sha256block2
// call. An odd leftover per block count runs in both lanes of one call,
// keeping one digest; values beyond the lane width use the streaming
// construct.
func hashBatch2(m *multiKernel, data []byte, offs []int32, out []Digest) {
	n := len(offs) - 1
	if n <= 0 {
		return
	}
	_ = out[:n] // one bounds check up front
	l0, l1 := lane{vLen: -1}, lane{vLen: -1}
	pending := [3]int{-1, -1, -1} // pending value index per block count
	for i := 0; i < n; i++ {
		nb := paddedBlocks(len(m.prefix), len(m.key), int(offs[i+1]-offs[i]))
		if nb == 0 {
			out[i] = Hash(m.key, data[offs[i]:offs[i+1]])
			continue
		}
		j := pending[nb]
		if j < 0 {
			pending[nb] = i
			continue
		}
		pending[nb] = -1
		m.fill(&l0, data, offs, j, nb)
		m.fill(&l1, data, offs, i, nb)
		sha256block2(&out[j], &out[i], &l0.buf[0], &l1.buf[0], m.mid, nb)
	}
	var spare Digest
	for nb, j := range pending {
		if j >= 0 {
			m.fill(&l0, data, offs, j, nb)
			sha256block2(&out[j], &spare, &l0.buf[0], &l0.buf[0], m.mid, nb)
		}
	}
}

// sha256K holds the SHA-256 round constants K0–K9 (FIPS 180-4, 4.2.2),
// for the Go-side midstate; the assembly keeps the full table.
var sha256K = [10]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01,
}
