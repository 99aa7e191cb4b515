package keyhash

// The AVX2 8-lane multi-buffer backend: a transposed SHA-256 where one
// YMM register holds the same word of eight independent messages, so
// every shift/xor/add of the compression function runs on all eight
// lanes at once. No SHA-NI dependency — this is the fast path for amd64
// machines with AVX2 but no SHA extensions, which is where KernelAuto
// picks it (see pickAuto).

import (
	"encoding/binary"
	"fmt"
)

// hasAVX2 gates the 8-lane kernel: AVX2 + BMI2 present, and the OS
// saving the full XMM+YMM state (OSXSAVE + XGETBV), without which AVX
// registers are silently corrupted across context switches.
var hasAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsaveBit = 1 << 27 // CPUID.1:ECX.OSXSAVE
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsaveBit == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2 // XCR0: SSE + AVX state enabled
	xcr0, _ := xgetbv(0)
	if xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2Bit = 1 << 5 // CPUID.7.0:EBX.AVX2
	const bmi2Bit = 1 << 8 // CPUID.7.0:EBX.BMI2
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2Bit != 0 && ebx7&bmi2Bit != 0
}()

// sha256mb8 runs one SHA-256 block of eight independent messages in
// transposed form: w holds the first 16 schedule words as rows of eight
// lanes (w[t*8+l] = word t of lane l, already byte-swapped); the
// assembly extends rows 16..63 in place and folds the block into state,
// also transposed (state[i*8+l] = h[i] of lane l).
//
//go:noescape
func sha256mb8(state *[64]uint32, w *[512]uint32)

// mbKernel8 batches values into eight-lane transposed calls. Immutable
// and safe for concurrent use: all per-call scratch is on the stack.
type mbKernel8 struct {
	h      *Hasher
	key    Key
	prefix []byte // len(k) ‖ k
	ctr    *kernelCounters
}

func avx2Def() *backendDef {
	d := &backendDef{
		kind:      KernelAVX2,
		lanes:     8,
		requires:  "amd64 with AVX2, BMI2",
		available: func() bool { return hasAVX2 },
	}
	d.build = func(k Key) Kernel { return newMBKernel8(k, &d.counters) }
	return d
}

func newMBKernel8(k Key, ctr *kernelCounters) Kernel {
	h, err := k.NewHasher()
	if err != nil {
		panic(fmt.Sprintf("keyhash: avx2 kernel: %v", err))
	}
	return &mbKernel8{h: h, key: k, prefix: h.prefix, ctr: ctr}
}

// HashColumn groups values of equal padded block count into batches of
// eight and hashes each batch one transposed block at a time. Ragged
// tails run through the scalar Hasher; values beyond the lane width use
// the streaming construct. The digests are bit-identical to
// Hash/HashString in every case.
func (m *mbKernel8) HashColumn(data []byte, offs []int32, out []Digest) {
	if len(offs) == 0 {
		return
	}
	m.ctr.tick(len(offs) - 1)
	hashBatch8(m, data, offs, out)
}

// hashBatch8 is the eight-lane batching core over a columnar view.
func hashBatch8(m *mbKernel8, data []byte, offs []int32, out []Digest) {
	n := len(offs) - 1
	if n <= 0 {
		return
	}
	_ = out[:n] // one bounds check up front
	var (
		bufs  [8][laneBytes]byte
		w     [512]uint32
		state [64]uint32
		pend  [3][8]int // pending value indexes per block count
		npend [3]int
	)
	for i := 0; i < n; i++ {
		v := data[offs[i]:offs[i+1]]
		nb := paddedBlocks(len(m.prefix), len(m.key), len(v))
		if nb == 0 {
			out[i] = Hash(m.key, v)
			continue
		}
		pend[nb][npend[nb]] = i
		npend[nb]++
		if npend[nb] < 8 {
			continue
		}
		npend[nb] = 0
		for l, j := range pend[nb] {
			fillPadded(&bufs[l], m.prefix, m.key, data[offs[j]:offs[j+1]], nb)
		}
		for i2, h := range sha256IV {
			for l := 0; l < 8; l++ {
				state[i2*8+l] = h
			}
		}
		for b := 0; b < nb; b++ {
			off := b * 64
			for t := 0; t < 16; t++ {
				for l := 0; l < 8; l++ {
					w[t*8+l] = binary.BigEndian.Uint32(bufs[l][off+t*4:])
				}
			}
			sha256mb8(&state, &w)
		}
		for l, j := range pend[nb] {
			for i2 := 0; i2 < 8; i2++ {
				binary.BigEndian.PutUint32(out[j][4*i2:], state[i2*8+l])
			}
		}
	}
	for nb := 1; nb <= 2; nb++ {
		for _, j := range pend[nb][:npend[nb]] {
			out[j] = m.h.Hash(data[offs[j]:offs[j+1]])
		}
	}
}
