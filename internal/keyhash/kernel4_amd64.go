package keyhash

// The 4-lane multi-buffer backend: four independent one-shot SHA-256
// message streams per assembly call (sha256block4_amd64.s). Where the
// 2-lane kernel interleaves two SHA256RNDS2 dependency chains, this one
// precomputes all four message schedules first and then interleaves
// four round chains with nothing but loads and PADDDs between them —
// hiding the RNDS2 latency twice as deep. Whether that wins over the
// 2-lane kernel depends on the microarchitecture, which is exactly what
// Calibrate measures.

import (
	"encoding/binary"
	"fmt"
)

// sha256block4 folds `blocks` 64-byte blocks of four independent
// messages (lane l at msgs[l*laneBytes:]) into four states (lane l at
// states[l*8:], plain h[0..7] word order). wbuf is schedule scratch the
// assembly spills into: 4 lanes x 64 words. Caller-allocated because a
// NOSPLIT assembly frame cannot hold 1 KiB.
//
//go:noescape
func sha256block4(states *[32]uint32, msgs *[4 * laneBytes]byte, wbuf *[256]uint32, blocks int)

// multiKernel4 batches values into four-lane assembly calls. Immutable
// and safe for concurrent use: all per-call scratch is on the stack.
type multiKernel4 struct {
	h      *Hasher
	key    Key
	prefix []byte // len(k) ‖ k
	ctr    *kernelCounters
}

func multiBuffer4Def() *backendDef {
	d := &backendDef{
		kind:      KernelMultiBuffer4,
		lanes:     4,
		requires:  "amd64 with SHA-NI, SSSE3, SSE4.1",
		available: func() bool { return hasSHANI },
	}
	d.build = func(k Key) Kernel { return newMultiKernel4(k, &d.counters) }
	return d
}

func newMultiKernel4(k Key, ctr *kernelCounters) Kernel {
	h, err := k.NewHasher()
	if err != nil {
		panic(fmt.Sprintf("keyhash: multibuffer4 kernel: %v", err))
	}
	return &multiKernel4{h: h, key: k, prefix: h.prefix, ctr: ctr}
}

// HashColumn groups values of equal padded block count into batches of
// four and hashes each batch in one assembly call. Leftover pairs use
// the 2-lane kernel, lone stragglers the scalar Hasher, and values
// beyond the lane width the streaming construct. The digests are
// bit-identical to Hash/HashString in every case.
func (m *multiKernel4) HashColumn(data []byte, offs []int32, out []Digest) {
	if len(offs) == 0 {
		return
	}
	m.ctr.tick(len(offs) - 1)
	hashBatch4(m, data, offs, out)
}

// hashBatch4 is the four-lane batching core over a columnar view.
func hashBatch4(m *multiKernel4, data []byte, offs []int32, out []Digest) {
	n := len(offs) - 1
	if n <= 0 {
		return
	}
	_ = out[:n] // one bounds check up front
	var (
		msgs   [4 * laneBytes]byte
		wbuf   [256]uint32
		states [32]uint32
		pend   [3][4]int // pending value indexes per block count
		npend  [3]int
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
		if npend[nb] < 4 {
			continue
		}
		npend[nb] = 0
		for l, j := range pend[nb] {
			fillPadded((*[laneBytes]byte)(msgs[l*laneBytes:]), m.prefix, m.key, data[offs[j]:offs[j+1]], nb)
			*(*[8]uint32)(states[l*8:]) = sha256IV
		}
		sha256block4(&states, &msgs, &wbuf, nb)
		for l, j := range pend[nb] {
			for w, x := range states[l*8 : l*8+8] {
				binary.BigEndian.PutUint32(out[j][4*w:], x)
			}
		}
	}
	// Ragged tails: up to three leftovers per block count. Pairs still
	// get the 2-lane kernel; a lone value runs through the scalar path.
	var b0, b1 [laneBytes]byte
	for nb := 1; nb <= 2; nb++ {
		rest := pend[nb][:npend[nb]]
		for len(rest) >= 2 {
			j0, j1 := rest[0], rest[1]
			rest = rest[2:]
			fillPadded(&b0, m.prefix, m.key, data[offs[j0]:offs[j0+1]], nb)
			fillPadded(&b1, m.prefix, m.key, data[offs[j1]:offs[j1+1]], nb)
			sha256block2(&out[j0], &out[j1], &b0[0], &b1[0], nil, nb)
		}
		if len(rest) == 1 {
			j := rest[0]
			out[j] = m.h.Hash(data[offs[j]:offs[j+1]])
		}
	}
}
