// Package store persists watermark certificates (core.Record) on disk for
// wmserver. Each record lives in its own JSON file named by a random
// 128-bit hex ID, sharded into 256 fan-out subdirectories keyed by the
// ID's first two hex digits so a catalog of hundreds of thousands of
// certificates never piles into one directory; writes go through a temp
// file and an atomic rename within the shard so a crash never leaves a
// half-written certificate, and a store-wide RWMutex makes the
// Put/Get/List/Delete surface safe for concurrent handlers. Open migrates
// stores written before sharding (flat files in the root) in place.
//
// Records contain the owner's secret — they are exactly as sensitive as
// the keys themselves — so files are created 0600 and directories 0700.
package store

import (
	"bytes"
	"container/list"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
)

// ErrNotFound reports a lookup for an ID the store does not hold.
var ErrNotFound = errors.New("store: record not found")

// idPattern is the shape of valid record IDs; Get/Delete reject anything
// else before touching the filesystem, so IDs can never traverse paths.
var idPattern = regexp.MustCompile(`^[0-9a-f]{32}$`)

const recordExt = ".json"

// Store is a directory of certificate files.
type Store struct {
	dir   string
	mu    sync.RWMutex
	cache recordCache
}

// recordCache keeps the decoded form of recently read certificates, keyed
// by ID and checked against the file's raw bytes, so a catalog audited
// job after job is read from disk but decoded once. It holds at most
// core.DefaultScannerCacheEntries records and evicts the least recently
// used. Safe for concurrent use.
type recordCache struct {
	mu      sync.Mutex
	lru     *list.List // of *cachedRecord, front = most recently used
	entries map[string]*list.Element
}

type cachedRecord struct {
	id  string
	raw []byte
	rec *core.Record
}

// get returns a copy of the record cached for id when raw equals the
// bytes it was decoded from.
func (c *recordCache) get(id string, raw []byte) (*core.Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[id]
	if !ok || !bytes.Equal(el.Value.(*cachedRecord).raw, raw) {
		return nil, false
	}
	c.lru.MoveToFront(el)
	rec := *el.Value.(*cachedRecord).rec
	return &rec, true
}

// put caches rec, decoded from raw, under id. It keeps its own copy of
// the record, so later changes to rec's fields do not reach the cache.
func (c *recordCache) put(id string, raw []byte, rec *core.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.lru, c.entries = list.New(), make(map[string]*list.Element)
	}
	cp := *rec
	slot := &cachedRecord{id: id, raw: raw, rec: &cp}
	if el, ok := c.entries[id]; ok {
		el.Value = slot
		c.lru.MoveToFront(el)
		return
	}
	c.entries[id] = c.lru.PushFront(slot)
	if c.lru.Len() > core.DefaultScannerCacheEntries {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cachedRecord).id)
	}
}

// drop forgets id.
func (c *recordCache) drop(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[id]; ok {
		c.lru.Remove(el)
		delete(c.entries, id)
	}
}

// Open creates the directory if needed, migrates any pre-sharding flat
// record files into their shards, and returns a store over it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir}
	if err := s.migrateFlat(); err != nil {
		return nil, err
	}
	return s, nil
}

// migrateFlat moves legacy root-level record files into their shard
// subdirectories. Renames stay on one filesystem, so each move is atomic
// and a crash mid-migration leaves every record readable (List and Get
// would still miss nothing: unmigrated files simply move on next Open).
func (s *Store) migrateFlat() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		id := strings.TrimSuffix(e.Name(), recordExt)
		if e.IsDir() || id == e.Name() || !idPattern.MatchString(id) {
			continue
		}
		if err := os.MkdirAll(s.shardDir(id), 0o700); err != nil {
			return fmt.Errorf("store: migrating %s: %w", id, err)
		}
		err := os.Rename(filepath.Join(s.dir, e.Name()), s.path(id))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			// ErrNotExist means a concurrent Open on the same directory
			// migrated this record first; the migration is idempotent.
			return fmt.Errorf("store: migrating %s: %w", id, err)
		}
	}
	return nil
}

// NewID returns a fresh random record ID.
func NewID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("store: generating id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// Put persists a record under a fresh ID and returns the ID.
func (s *Store) Put(rec *core.Record) (string, error) {
	id, err := NewID()
	if err != nil {
		return "", err
	}
	data, err := rec.Save()
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.MkdirAll(s.shardDir(id), 0o700); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	// The temp file lives inside the shard so the rename is atomic.
	tmp, err := os.CreateTemp(s.shardDir(id), "put-*")
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", fmt.Errorf("store: %w", err)
	}
	if err := tmp.Chmod(0o600); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, s.path(id)); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("store: %w", err)
	}
	return id, nil
}

// Get loads the record stored under id. The file is read on every call;
// when its bytes are the ones last decoded for id, the decoded record is
// reused, so a file rewritten behind the store's back is decoded again.
// Each call returns its own copy of the record's top-level fields; the
// Domain slice and Profile map may be shared between calls and must not
// be modified.
func (s *Store) Get(id string) (*core.Record, error) {
	if !idPattern.MatchString(id) {
		return nil, fmt.Errorf("%w: invalid id %q", ErrNotFound, id)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, err := os.ReadFile(s.path(id))
	if errors.Is(err, os.ErrNotExist) {
		// Legacy flat layout: a record dropped in behind Open's back.
		data, err = os.ReadFile(filepath.Join(s.dir, id+recordExt))
		if errors.Is(err, os.ErrNotExist) {
			// A concurrent Open may have migrated the flat file into its
			// shard between the two reads; check the shard once more.
			data, err = os.ReadFile(s.path(id))
		}
	}
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if rec, ok := s.cache.get(id, data); ok {
		return rec, nil
	}
	rec, err := core.LoadRecord(data)
	if err != nil {
		return nil, fmt.Errorf("store: record %s: %w", id, err)
	}
	s.cache.put(id, data, rec)
	return rec, nil
}

// Delete removes the record stored under id.
func (s *Store) Delete(id string) error {
	if !idPattern.MatchString(id) {
		return fmt.Errorf("%w: invalid id %q", ErrNotFound, id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache.drop(id)
	err := os.Remove(s.path(id))
	if errors.Is(err, os.ErrNotExist) {
		err = os.Remove(filepath.Join(s.dir, id+recordExt))
		if errors.Is(err, os.ErrNotExist) {
			// See Get: a concurrent Open may have just migrated the file.
			err = os.Remove(s.path(id))
		}
	}
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// shardPattern is the shape of shard subdirectory names.
var shardPattern = regexp.MustCompile(`^[0-9a-f]{2}$`)

// List returns the IDs of every stored record, sorted.
func (s *Store) List() ([]string, error) {
	ids, _, err := s.ListPage("", 0)
	return ids, err
}

// ListPage returns up to limit record IDs strictly after the cursor
// `after` in sorted order, plus the cursor for the next page (empty when
// the listing is exhausted). limit <= 0 means no bound. This is the
// primitive behind GET /records?limit=N&after=<id>: because record IDs
// shard by their first two hex digits, shards ARE lexical buckets — a
// page walk skips every shard before the cursor and stops as soon as the
// page fills, so walking a million-record store page by page never sorts
// the whole catalog per request.
func (s *Store) ListPage(after string, limit int) (ids []string, next string, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, "", fmt.Errorf("store: %w", err)
	}

	// Legacy flat files dropped in behind Open's back still list; group
	// them into their would-be shard buckets so the bucket walk below
	// stays in global ID order.
	flat := map[string][]string{}
	buckets := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			if shardPattern.MatchString(name) {
				buckets[name] = true
			}
			continue
		}
		id := strings.TrimSuffix(name, recordExt)
		if id == name || !idPattern.MatchString(id) {
			continue // temp files, strays
		}
		flat[id[:2]] = append(flat[id[:2]], id)
		buckets[id[:2]] = true
	}
	ordered := make([]string, 0, len(buckets))
	for b := range buckets {
		ordered = append(ordered, b)
	}
	sort.Strings(ordered)

	want := limit
	if want > 0 {
		want++ // one extra decides whether a next page exists
	}
	// The cursor is compared as an opaque string, so any value is safe —
	// but only a cursor with a full 2-hex prefix can skip whole shards.
	afterShard := ""
	if len(after) >= 2 {
		afterShard = after[:2]
	}
	for _, bucket := range ordered {
		if bucket < afterShard {
			continue // the whole shard precedes the cursor
		}
		page := append([]string(nil), flat[bucket]...)
		if _, statErr := os.Stat(filepath.Join(s.dir, bucket)); statErr == nil {
			sub, err := os.ReadDir(filepath.Join(s.dir, bucket))
			if err != nil {
				return nil, "", fmt.Errorf("store: %w", err)
			}
			for _, e := range sub {
				name := e.Name()
				id := strings.TrimSuffix(name, recordExt)
				if e.IsDir() || id == name || !idPattern.MatchString(id) {
					continue
				}
				page = append(page, id)
			}
		}
		sort.Strings(page)
		for _, id := range page {
			if after != "" && id <= after {
				continue
			}
			ids = append(ids, id)
		}
		if want > 0 && len(ids) >= want {
			break // later shards only hold larger IDs
		}
	}
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
		next = ids[limit-1]
	}
	return ids, next, nil
}

// shardDir returns the fan-out subdirectory a record ID lives in.
func (s *Store) shardDir(id string) string {
	return filepath.Join(s.dir, id[:2])
}

func (s *Store) path(id string) string {
	return filepath.Join(s.shardDir(id), id+recordExt)
}
