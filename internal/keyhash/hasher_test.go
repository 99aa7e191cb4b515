package keyhash

import (
	"strings"
	"testing"
)

// TestHasherMatchesHash asserts the prepared fast path is bit-identical to
// the streaming construct for every buffer-size regime, including values
// that overflow the one-shot stack buffer and oddly sized raw keys.
func TestHasherMatchesHash(t *testing.T) {
	keys := []Key{
		NewKey("hasher-test"),
		Key("k"),
		Key(strings.Repeat("long-key-", 30)), // prefix alone exceeds oneShotMax
	}
	values := []string{
		"",
		"1234567",
		"visit-9918231",
		strings.Repeat("v", oneShotMax), // forces the slow path
		strings.Repeat("w", 3*oneShotMax),
	}
	for _, k := range keys {
		h, err := k.NewHasher()
		if err != nil {
			t.Fatalf("NewHasher(%q): %v", k, err)
		}
		for _, v := range values {
			want := HashString(k, v)
			if got := h.HashString(v); got != want {
				t.Errorf("key %d bytes, value %d bytes: HashString mismatch", len(k), len(v))
			}
			if got := h.Hash([]byte(v)); got != want {
				t.Errorf("key %d bytes, value %d bytes: Hash mismatch", len(k), len(v))
			}
		}
	}
}

func TestNewHasherRejectsEmptyKey(t *testing.T) {
	if _, err := Key(nil).NewHasher(); err == nil {
		t.Fatal("NewHasher accepted an empty key")
	}
}

// HashString is Hash over the UTF-8 bytes of v. Only the tests call it:
// the engine hashes whole columns through a Kernel, and the oracles
// call the package-level HashString.
func (h *Hasher) HashString(v string) Digest {
	switch total := len(h.prefix) + len(v) + len(h.key); {
	case total <= oneShotShort:
		var buf [oneShotShort]byte
		return oneShot(h, buf[:], v)
	case total <= oneShotMax:
		var buf [oneShotMax]byte
		return oneShot(h, buf[:], v)
	default:
		return HashString(h.key, v)
	}
}
