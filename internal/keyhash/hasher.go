package keyhash

import (
	"crypto/sha256"
	"encoding/binary"
)

// Hasher is a prepared evaluation context for H(·;k) with the key fixed.
// The construct's prefix (len(k) ‖ k) is assembled once at construction,
// and each Hash call runs a single one-shot SHA-256 over a stack buffer
// instead of four streaming writes through the hash.Hash interface. The
// digests are bit-identical to Hash/HashString — the hot detection and
// embedding loops evaluate one keyed hash per tuple per certificate, so
// this is the per-tuple unit of work batch verification multiplies.
// (The block engine batches that unit further: see Kernel, whose
// implementations reuse one scratch buffer per block instead of
// zero-initialising a fresh one per call.)
//
// A Hasher is immutable after construction and safe for concurrent use.
type Hasher struct {
	key    Key
	prefix []byte // len(k) ‖ k
}

// NewHasher validates the key and prepares a Hasher for it.
func (k Key) NewHasher() (*Hasher, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	prefix := make([]byte, 8+len(k))
	binary.BigEndian.PutUint64(prefix[:8], uint64(len(k)))
	copy(prefix[8:], k)
	return &Hasher{key: k, prefix: prefix}, nil
}

// The one-shot fast path is tiered so the compiler zero-initialises only
// as much stack as the input needs: a NewKey-derived 32-byte key leaves
// oneShotShort enough room for values up to 24 bytes — the realistic
// key-attribute range — and oneShotMax for values up to 56. Longer
// inputs fall back to the streaming construct. (BenchmarkHasher tracks
// the tier deltas; the batched kernels sidestep the per-call zero-init
// entirely by reusing one scratch buffer per block.)
const (
	oneShotShort = 96
	oneShotMax   = 128
)

// oneShot assembles len(k) ‖ k ‖ v ‖ k into buf and hashes it. buf must
// hold len(prefix) + len(v) + len(key) bytes.
func oneShot[V ~string | ~[]byte](h *Hasher, buf []byte, v V) Digest {
	n := copy(buf, h.prefix)
	n += copy(buf[n:], v)
	n += copy(buf[n:], h.key)
	return Digest(sha256.Sum256(buf[:n]))
}

// Hash computes H(v;k), identically to Hash(k, v).
func (h *Hasher) Hash(v []byte) Digest {
	switch total := len(h.prefix) + len(v) + len(h.key); {
	case total <= oneShotShort:
		var buf [oneShotShort]byte
		return oneShot(h, buf[:], v)
	case total <= oneShotMax:
		var buf [oneShotMax]byte
		return oneShot(h, buf[:], v)
	default:
		return Hash(h.key, v)
	}
}
