package core

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/relation"
)

// preparedRecord is the schema-independent verification state derived
// from a certificate: parsed expected bits, the reconstructed value
// domain, and the channel options with both keys derived from the secret.
// Deriving it is the per-verify fixed cost — domain reconstruction is
// O(|domain|) map building, key derivation hashes the secret — so
// repeated verifies against the same certificate share one preparedRecord
// through a ScannerCache. It is immutable and safe for concurrent use;
// per-suspect scanners are instantiated from it cheaply.
type preparedRecord struct {
	want ecc.Bits
	opts mark.Options
}

// prepareRecord derives rec's prepared state. dom, when non-nil, is an
// interned domain already built from rec.Domain (see ScannerCache);
// nil builds it here.
func prepareRecord(rec *Record, kernel keyhash.KernelKind, dom *relation.Domain) (*preparedRecord, error) {
	want, err := ecc.ParseBits(rec.WM)
	if err != nil {
		return nil, fmt.Errorf("core: corrupt record: %w", err)
	}
	if dom == nil {
		if dom, err = relation.NewDomain(rec.Domain); err != nil {
			return nil, fmt.Errorf("core: corrupt record: %w", err)
		}
	}
	s := Spec{Secret: rec.Secret}
	k1, k2 := s.keys()
	return &preparedRecord{
		want: want,
		opts: mark.Options{
			KeyAttr:           rec.KeyAttr,
			Attr:              rec.Attribute,
			K1:                k1,
			K2:                k2,
			E:                 rec.E,
			Domain:            dom,
			BandwidthOverride: rec.Bandwidth,
			HashKernel:        kernel,
		},
	}, nil
}

// streamScanner instantiates a detection scanner for one suspect schema.
func (p *preparedRecord) streamScanner(schema *relation.Schema) (*mark.Scanner, error) {
	return mark.NewStreamScanner(schema, len(p.want), p.opts)
}

// fieldDigest hashes a sequence of fields through one small buffer:
// writing each string straight into a hash.Hash would copy it into a
// fresh []byte per field, which over a 1000-value domain is most of
// what a cache lookup allocates.
type fieldDigest struct {
	h   hash.Hash
	buf []byte
}

func newFieldDigest() *fieldDigest {
	return &fieldDigest{h: sha256.New(), buf: make([]byte, 0, 512)}
}

// str adds a length-prefixed string.
func (f *fieldDigest) str(s string) {
	f.u64(uint64(len(s)))
	f.buf = append(f.buf, s...)
	if len(f.buf) >= 448 {
		f.h.Write(f.buf)
		f.buf = f.buf[:0]
	}
}

// u64 adds a fixed-width word.
func (f *fieldDigest) u64(v uint64) { f.buf = binary.BigEndian.AppendUint64(f.buf, v) }

// sum returns the digest of everything added.
func (f *fieldDigest) sum() string {
	f.h.Write(f.buf)
	return string(f.h.Sum(nil))
}

// domainDigest is the digest of a certificate's domain value list, in
// order: the key ScannerCache interns domains by. Equal digests mean
// equal lists, and so equal domains.
func domainDigest(values []string) string {
	f := newFieldDigest()
	for _, v := range values {
		f.str(v)
	}
	return f.sum()
}

// fingerprint keys the scanner cache: a digest over every field that
// feeds the prepared state (secret, attributes, expected bits, e,
// bandwidth) and over domDigest, rec's domainDigest — folded in so the
// domain values are hashed once per lookup, for both keys. The
// frequency profile is deliberately excluded — remap recovery reads it
// straight off the record, never from the prepared state — so
// certificates differing only in profile share an entry.
//
// The digest is recomputed per lookup, so a cache hit still costs one
// hash pass over the domain strings. That is deliberate: Record is a
// plain value callers copy and mutate (tests and benchmarks derive
// sibling certificates via `other := *rec`), so memoizing the
// fingerprint inside the struct would silently go stale; and keying by
// store ID would couple core to the server's storage identity. The hit
// still skips the expensive part — ParseBits, key derivation and the
// O(|domain|) map build with its per-value allocations — which costs an
// order of magnitude more than hashing the same bytes.
func (rec *Record) fingerprint(domDigest string) string {
	f := newFieldDigest()
	f.str(rec.Secret)
	f.str(rec.Attribute)
	f.str(rec.KeyAttr)
	f.str(rec.WM)
	f.u64(rec.E)
	f.u64(uint64(rec.Bandwidth))
	f.str(domDigest)
	return f.sum()
}

// DefaultScannerCacheEntries is the entry bound NewScannerCache applies
// when given a non-positive size.
const DefaultScannerCacheEntries = 256

// ScannerCache memoizes prepared certificate state across verifies, so a
// service verifying many suspects against the same registered catalog
// re-derives keys and domains once per certificate instead of once per
// request. Entries evict least-recently-used. Entries whose
// certificates carry the same domain list share one *relation.Domain:
// one value index to build, keep in memory and probe from every
// scanner of a batch. Safe for concurrent use.
type ScannerCache struct {
	mu      sync.Mutex
	max     int
	lru     *list.List // of *cacheSlot, front = most recently used
	entries map[string]*list.Element
	domains map[string]*sharedDomain // by domainDigest
	hits    uint64
	misses  uint64
}

type cacheSlot struct {
	key       string
	domDigest string
	prep      *preparedRecord
}

// sharedDomain is an interned domain and the number of cache entries
// holding it; the last entry evicted drops it.
type sharedDomain struct {
	dom  *relation.Domain
	refs int
}

// NewScannerCache returns a cache bounded to maxEntries prepared records
// (DefaultScannerCacheEntries when maxEntries <= 0).
func NewScannerCache(maxEntries int) *ScannerCache {
	if maxEntries <= 0 {
		maxEntries = DefaultScannerCacheEntries
	}
	return &ScannerCache{
		max:     maxEntries,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
		domains: make(map[string]*sharedDomain),
	}
}

// prepared returns the cached state for rec under the given hash-kernel
// kind, deriving and inserting it on miss. The kind is part of the cache
// key — prepared state carries the kernel choice into every scanner it
// spawns, so entries for different backends must not alias. Derivation
// happens outside the lock, reusing an interned domain when one exists;
// when two goroutines race on the same certificate the first insert
// wins and both share its state.
func (c *ScannerCache) prepared(rec *Record, kernel keyhash.KernelKind) (*preparedRecord, error) {
	domDigest := domainDigest(rec.Domain)
	key := rec.fingerprint(domDigest) + "|" + string(kernel)
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		p := el.Value.(*cacheSlot).prep
		c.mu.Unlock()
		return p, nil
	}
	c.misses++
	var dom *relation.Domain
	if sd, ok := c.domains[domDigest]; ok {
		dom = sd.dom
	}
	c.mu.Unlock()

	p, err := prepareRecord(rec, kernel, dom)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*cacheSlot).prep, nil
	}
	if sd, ok := c.domains[domDigest]; ok {
		// p is still private: point it at the interned domain, which a
		// racing miss may have inserted since the lookup above.
		p.opts.Domain = sd.dom
		sd.refs++
	} else {
		c.domains[domDigest] = &sharedDomain{dom: p.opts.Domain, refs: 1}
	}
	c.entries[key] = c.lru.PushFront(&cacheSlot{key: key, domDigest: domDigest, prep: p})
	if c.lru.Len() > c.max {
		oldest := c.lru.Remove(c.lru.Back()).(*cacheSlot)
		delete(c.entries, oldest.key)
		sd := c.domains[oldest.domDigest]
		if sd.refs--; sd.refs == 0 {
			delete(c.domains, oldest.domDigest)
		}
	}
	return p, nil
}

// CacheStats is a point-in-time view of a ScannerCache.
type CacheStats struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// Stats reports current occupancy and lifetime hit/miss counts.
func (c *ScannerCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: c.lru.Len(), Hits: c.hits, Misses: c.misses}
}

// prepared resolves a record's verification state through an optional
// cache; a nil cache derives it fresh.
func prepared(rec *Record, cache *ScannerCache, kernel keyhash.KernelKind) (*preparedRecord, error) {
	if cache == nil {
		return prepareRecord(rec, kernel, nil)
	}
	return cache.prepared(rec, kernel)
}
