package keyhash

import (
	"crypto/sha256"
	"fmt"
)

// Kernel is a batched evaluation context for H(·;k): the pluggable bottom
// of the block-at-a-time scan engine. One HashColumn call hashes a whole
// block column of key values, which lets an implementation amortize
// per-call overhead (scratch reuse, padding assembly) or run several
// one-shot SHA-256 states at once (the amd64 multi-buffer backend).
// Digests are bit-identical to Hash/HashString — a Kernel is an
// execution strategy, never a different hash.
//
// Implementations must be immutable after construction and safe for
// concurrent use: the detection fan-out shares one prepared Scanner (and
// therefore one Kernel) across all worker goroutines. Per-call scratch
// lives on the stack or in caller-owned state (see BlockMemo).
type Kernel interface {
	// HashColumn computes H(v_i;k) into out[i] for every value of a
	// columnar view: value i is data[offs[i]:offs[i+1]], with
	// len(offs) == n+1 and offs[0] == 0 — the exact arena shape of a
	// relation block column. The scan and embed engines hash key-column
	// bytes directly through it, never materializing a string per
	// field. len(out) must be at least len(offs)-1.
	HashColumn(data []byte, offs []int32, out []Digest)
}

// KernelKind names a batched hash backend.
type KernelKind string

const (
	// KernelAuto picks a backend from the CPU's features alone (see
	// AutoKind), so every node with the same features scans with the
	// same backend.
	KernelAuto KernelKind = ""
	// KernelPortable is the pure-Go batched kernel: one-shot SHA-256 per
	// value over a reused stack scratch buffer. Available everywhere.
	KernelPortable KernelKind = "portable"
	// KernelMultiBuffer interleaves two one-shot SHA-256 message streams
	// through the CPU's SHA extensions in one assembly loop, hiding the
	// SHA256RNDS2 dependency-chain latency that leaves a single-stream
	// implementation underutilizing the execution ports. When a value
	// ends inside block 1 of a two-block message (8+len(k)+|V| <= 64,
	// so every value of up to 24 bytes under a 32-byte NewKey key),
	// block 2 holds only the key tail, padding and bit length: it is
	// hashed from a W+K schedule precomputed once per key and value
	// length, shared by both lanes of a same-length pair. The path is
	// chosen from the key and value lengths alone. amd64 with SHA-NI
	// only; NewKernel reports an error elsewhere.
	KernelMultiBuffer KernelKind = "multibuffer"
	// KernelMultiBuffer4 runs four independent SHA-256 streams per
	// assembly call — two interleaved 2-lane schedule chains feeding one
	// 4-deep interleaved round loop — hiding the SHA256RNDS2 latency
	// chain deeper than the 2-lane kernel can. amd64 with SHA-NI only.
	KernelMultiBuffer4 KernelKind = "multibuffer4"
	// KernelAVX2 is the 8-lane multi-buffer SHA-256 kernel: a transposed
	// message schedule evaluated with plain AVX2 integer SIMD, one YMM
	// word per round across eight independent messages. No SHA-NI
	// dependency — amd64 with AVX2 + BMI2 only.
	KernelAVX2 KernelKind = "avx2"
)

// backendDef is one registered hash backend: the registry entry that
// lets a kernel self-describe its lane width and CPU requirements, so
// enumeration (Backends, KernelStats, Calibrate) can never
// silently miss a backend that NewKernel accepts.
type backendDef struct {
	kind  KernelKind
	lanes int
	// requires names the CPU gate for diagnostics ("" = none).
	requires string
	// available reports whether this CPU can run the backend.
	available func() bool
	// build constructs the kernel for a validated key; only called when
	// available() is true.
	build func(Key) Kernel
	// counters is the backend's process-wide HashColumn activity, ticked
	// by every kernel the def builds and read by KernelStats.
	counters kernelCounters
}

// registry holds every backend in presentation order: portable first,
// then the accelerated backends by increasing lane count (arch init
// functions append theirs). Selection order is NOT registry order —
// KernelAuto follows pickAuto.
var registry = func() []*backendDef {
	d := &backendDef{
		kind:      KernelPortable,
		lanes:     1,
		available: func() bool { return true },
	}
	d.build = func(k Key) Kernel { return newPortableKernel(k, &d.counters) }
	return []*backendDef{d}
}()

// AutoKind is the concrete backend KernelAuto resolves to on this CPU.
func AutoKind() KernelKind {
	return pickAuto(func(kind KernelKind) bool {
		d := lookupBackend(kind)
		return d != nil && d.available()
	})
}

// pickAuto is KernelAuto's rule: multibuffer where the CPU has SHA-NI,
// else avx2 where it has AVX2 and BMI2, else portable. multibuffer
// outran every other backend on every host with a record. Without
// SHA-NI, portable falls back to the stdlib's AVX2 SHA-256, which avx2
// outruns: on a 2-vCPU AMD EPYC with the stdlib's SHA-NI path switched
// off (GODEBUG=cpu.sha=off), BenchmarkKernelHashColumn read avx2 at
// 7.8 Mhash/s against portable's 5.0, at 6- and 32-byte values, in 10
// of 10 pairs. A pre-SHA-NI core with its own AVX2 throughput is not
// on record.
func pickAuto(available func(KernelKind) bool) KernelKind {
	for _, kind := range []KernelKind{KernelMultiBuffer, KernelAVX2} {
		if available(kind) {
			return kind
		}
	}
	return KernelPortable
}

func lookupBackend(kind KernelKind) *backendDef {
	for _, d := range registry {
		if d.kind == kind {
			return d
		}
	}
	return nil
}

// BackendInfo describes one registered hash backend for introspection
// (wmtool kernels, the README catalog, tests).
type BackendInfo struct {
	// Kind is the spelling NewKernel accepts.
	Kind KernelKind `json:"kind"`
	// Lanes is how many independent SHA-256 streams one HashColumn
	// batch step evaluates.
	Lanes int `json:"lanes"`
	// Requires names the CPU features gating the backend ("" = none).
	Requires string `json:"requires,omitempty"`
	// Available reports whether this machine can run the backend.
	Available bool `json:"available"`
}

// Backends lists every registered backend in presentation order,
// including ones this CPU cannot run (Available reports which).
func Backends() []BackendInfo {
	out := make([]BackendInfo, len(registry))
	for i, d := range registry {
		out[i] = BackendInfo{
			Kind:      d.kind,
			Lanes:     d.lanes,
			Requires:  d.requires,
			Available: d.available(),
		}
	}
	return out
}

// NewKernel validates the key and builds the requested hash backend.
// KernelAuto never fails on a valid key (it resolves to AutoKind); a
// concrete kind fails where the CPU (or architecture) lacks the
// features it needs.
func (k Key) NewKernel(kind KernelKind) (Kernel, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if kind == KernelAuto {
		kind = AutoKind()
	}
	d := lookupBackend(kind)
	if d == nil {
		return nil, fmt.Errorf("keyhash: unknown hash kernel %q (want one of %s)", kind, kindSpellings())
	}
	if !d.available() {
		return nil, fmt.Errorf("keyhash: kernel %q unavailable on this CPU (needs %s)", kind, d.requires)
	}
	return d.build(k), nil
}

// kindSpellings renders the accepted kinds for error messages.
func kindSpellings() string {
	s := fmt.Sprintf("%q", KernelAuto)
	for _, d := range registry {
		s += fmt.Sprintf(", %q", d.kind)
	}
	return s
}

// portableKernel is the pure-Go batched backend. The construct's message
// layout (len(k) ‖ k ‖ v ‖ k) is assembled into one stack scratch buffer
// that lives for the whole HashColumn call, so the per-call zero-init
// and prefix copy of Hasher.Hash are paid once per block instead of once
// per value.
type portableKernel struct {
	h   *Hasher
	ctr *kernelCounters
}

func newPortableKernel(k Key, ctr *kernelCounters) *portableKernel {
	h, err := k.NewHasher()
	if err != nil {
		// NewKernel validated the key already.
		panic(fmt.Sprintf("keyhash: portable kernel: %v", err))
	}
	return &portableKernel{h: h, ctr: ctr}
}

// HashColumn hashes every value with a single scratch buffer. Values too
// long for the one-shot buffer fall back to the streaming construct,
// exactly like Hasher.Hash.
func (p *portableKernel) HashColumn(data []byte, offs []int32, out []Digest) {
	if len(offs) == 0 {
		return
	}
	n := len(offs) - 1
	p.ctr.tick(n)
	_ = out[:n] // one bounds check up front
	h := p.h
	var buf [oneShotMax]byte
	prefixLen := copy(buf[:], h.prefix)
	for i := 0; i < n; i++ {
		v := data[offs[i]:offs[i+1]]
		total := prefixLen + len(v) + len(h.key)
		if total > oneShotMax {
			out[i] = Hash(h.key, v)
			continue
		}
		w := prefixLen
		w += copy(buf[w:], v)
		w += copy(buf[w:], h.key)
		out[i] = Digest(sha256.Sum256(buf[:w]))
	}
}

// laneKey identifies one memo lane: a secret key evaluated over one key
// column. Two scanners that derive the same k1 (certificates of the same
// owner secret) and resolve the same key column share a lane.
type laneKey struct {
	col int
	key string
}

// BlockMemo caches HashColumn results per lane for ONE block of key
// values, so N certificates sharing a key column hash each distinct key
// value once per lane, not once per certificate. The caller owns the
// block identity: Reset invalidates every lane when the block changes.
//
// A BlockMemo is mutable scratch — per worker, never shared across
// goroutines.
type BlockMemo struct {
	lanes map[laneKey][]Digest
	free  [][]Digest
}

// Reset invalidates all lanes (the scratch block moved on); digest
// slices are recycled into the next block's lanes.
func (m *BlockMemo) Reset() {
	for k, d := range m.lanes {
		m.free = append(m.free, d)
		delete(m.lanes, k)
	}
}

// LaneColumn returns the digests under kern of a block column's arena
// view (value i is data[offs[i]:offs[i+1]], len(offs) == rows+1),
// computing them on the first call for this (col, key) lane and
// replaying them afterwards. key is the string form of the secret key
// (callers cache it — passing string(k) inline would allocate per
// call). The returned slice is valid until the next Reset.
func (m *BlockMemo) LaneColumn(col int, key string, kern Kernel, data []byte, offs []int32) []Digest {
	if m.lanes == nil {
		m.lanes = make(map[laneKey][]Digest)
	}
	lk := laneKey{col: col, key: key}
	if d, ok := m.lanes[lk]; ok {
		return d
	}
	var d []Digest
	if f := len(m.free); f > 0 {
		d = m.free[f-1][:0]
		m.free = m.free[:f-1]
	}
	n := len(offs) - 1
	if cap(d) < n {
		d = make([]Digest, n)
	}
	d = d[:n]
	m.lanes[lk] = d
	kern.HashColumn(data, offs, d)
	return d
}
