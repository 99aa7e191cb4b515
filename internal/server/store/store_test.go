package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
)

func testRecord(wm string) *core.Record {
	return &core.Record{
		Secret:    "store-test-secret",
		Attribute: "Item_Nbr",
		WM:        wm,
		E:         60,
		Bandwidth: 128,
		Domain:    []string{"10", "11", "12"},
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord("1011001110")
	id, err := s.Put(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Secret != rec.Secret || got.WM != rec.WM || got.E != rec.E ||
		got.Bandwidth != rec.Bandwidth || len(got.Domain) != len(rec.Domain) {
		t.Fatalf("round trip mangled record: put %+v, got %+v", rec, got)
	}
}

func TestGetUnknownAndInvalidIDs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{
		"00000000000000000000000000000000", // valid shape, absent
		"../../etc/passwd",                 // traversal attempt
		"short",
		"",
		"ZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZ",
	} {
		if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(%q): %v, want ErrNotFound", id, err)
		}
	}
}

func TestListAndDelete(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := s.Put(testRecord("101"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	listed, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 3 {
		t.Fatalf("listed %d records, want 3", len(listed))
	}
	if err := s.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted record still readable: %v", err)
	}
	if err := s.Delete(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
	listed, err = s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 2 {
		t.Fatalf("listed %d records after delete, want 2", len(listed))
	}
}

// TestConcurrentAccess hammers the store from many goroutines; run with
// -race in CI.
func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				id, err := s.Put(testRecord(fmt.Sprintf("10%d", g%10)))
				if err != nil {
					errCh <- err
					return
				}
				if _, err := s.Get(id); err != nil {
					errCh <- err
					return
				}
				if _, err := s.List(); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	ids, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 64 {
		t.Fatalf("have %d records, want 64", len(ids))
	}
}

// TestShardedLayout asserts records land in their two-hex-digit fan-out
// subdirectory and List returns them sorted across shards.
func TestShardedLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 16; i++ {
		id, err := s.Put(testRecord("1011"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if _, err := os.Stat(filepath.Join(dir, id[:2], id+recordExt)); err != nil {
			t.Fatalf("record %s not in its shard: %v", id, err)
		}
	}
	listed, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != len(ids) {
		t.Fatalf("listed %d, want %d", len(listed), len(ids))
	}
	if !sort.StringsAreSorted(listed) {
		t.Fatalf("List not sorted: %v", listed)
	}
	sort.Strings(ids)
	for i := range ids {
		if listed[i] != ids[i] {
			t.Fatalf("List mismatch at %d: %s != %s", i, listed[i], ids[i])
		}
	}
}

// TestOpenMigratesFlatStore lays out a pre-sharding store (flat files in
// the root, as PR 1 wrote them) and asserts Open moves every record into
// its shard with nothing lost.
func TestOpenMigratesFlatStore(t *testing.T) {
	dir := t.TempDir()
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := NewID()
		if err != nil {
			t.Fatal(err)
		}
		data, err := testRecord("1011").Save()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id+recordExt), data, 0o600); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// A stray that must survive untouched.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("keep"), 0o600); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := os.Stat(filepath.Join(dir, id+recordExt)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("flat file %s not migrated: %v", id, err)
		}
		if _, err := s.Get(id); err != nil {
			t.Fatalf("migrated record %s unreadable: %v", id, err)
		}
	}
	listed, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != len(ids) {
		t.Fatalf("listed %d after migration, want %d", len(listed), len(ids))
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatalf("stray file disturbed: %v", err)
	}

	// A flat record dropped in behind Open's back still resolves.
	id, err := NewID()
	if err != nil {
		t.Fatal(err)
	}
	data, err := testRecord("1100").Save()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id+recordExt), data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(id); err != nil {
		t.Fatalf("legacy fallback Get: %v", err)
	}
	if err := s.Delete(id); err != nil {
		t.Fatalf("legacy fallback Delete: %v", err)
	}
}

// TestListPageWalksWholeStore pages through a store with a cursor and
// asserts the concatenated pages equal the full sorted listing, with a
// mix of sharded and legacy flat records.
func TestListPageWalksWholeStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, 0, 23)
	for i := 0; i < 20; i++ {
		id, err := s.Put(testRecord("1011"))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	// Legacy flat files dropped in behind Open's back must paginate too.
	for i := 0; i < 3; i++ {
		id, err := NewID()
		if err != nil {
			t.Fatal(err)
		}
		data, err := testRecord("1100").Save()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id+recordExt), data, 0o600); err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	sort.Strings(want)

	var got []string
	after := ""
	for page := 0; ; page++ {
		if page > 30 {
			t.Fatal("pagination never terminated")
		}
		ids, next, err := s.ListPage(after, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) > 4 {
			t.Fatalf("page of %d ids, limit 4", len(ids))
		}
		got = append(got, ids...)
		if next == "" {
			break
		}
		if next != ids[len(ids)-1] {
			t.Fatalf("next cursor %s != last id %s", next, ids[len(ids)-1])
		}
		after = next
	}
	if len(got) != len(want) {
		t.Fatalf("paged %d ids, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("page walk diverged at %d: %s != %s", i, got[i], want[i])
		}
	}
	if !sort.StringsAreSorted(got) {
		t.Fatalf("page walk unsorted: %v", got)
	}

	// An exact-boundary page must not fabricate a next cursor.
	ids, next, err := s.ListPage(want[len(want)-2], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != want[len(want)-1] || next != "" {
		t.Fatalf("final page: ids=%v next=%q", ids, next)
	}
	// A cursor at the end yields an empty page.
	if ids, next, err = s.ListPage(want[len(want)-1], 5); err != nil || len(ids) != 0 || next != "" {
		t.Fatalf("past-the-end page: ids=%v next=%q err=%v", ids, next, err)
	}
}

// TestListPageShortCursor asserts arbitrary (attacker-supplied) cursors —
// shorter than a shard prefix, or garbage — page safely instead of
// panicking, since `after` arrives straight off a query parameter.
func TestListPageShortCursor(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 4; i++ {
		id, err := s.Put(testRecord("1011"))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	sort.Strings(want)
	for _, after := range []string{"a", "0", "!", "zzz", "..", "0g"} {
		ids, _, err := s.ListPage(after, 10)
		if err != nil {
			t.Fatalf("after=%q: %v", after, err)
		}
		for _, id := range ids {
			if id <= after {
				t.Fatalf("after=%q returned id %s not past the cursor", after, id)
			}
		}
	}
	// A short cursor that precedes every hex ID returns everything.
	ids, _, err := s.ListPage("!", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(want) {
		t.Fatalf("cursor %q returned %d ids, want %d", "!", len(ids), len(want))
	}
}

// getTwice reads id through the store twice, so the second read is
// served by the decoded-record cache.
func getTwice(t *testing.T, s *Store, id string) (first, second *core.Record) {
	t.Helper()
	first, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	second, err = s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return first, second
}

func TestRecordCacheMatchesLoadRecord(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord("1011001110")
	rec.Profile = map[string]float64{"10": 0.5, "11": 0.25, "12": 0.25}
	rec.HasFrequencyChannel = true
	id, err := s.Put(rec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.path(id))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.LoadRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	first, cached := getTwice(t, s, id)
	if s.cache.entries[id] == nil {
		t.Fatal("Get left no cache entry")
	}
	for _, got := range []*core.Record{first, cached} {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Get = %+v, LoadRecord = %+v", got, want)
		}
	}
}

func TestRecordCacheRewrittenFile(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Put(testRecord("1011001110"))
	if err != nil {
		t.Fatal(err)
	}
	getTwice(t, s, id)
	// Rewrite the certificate behind the store's back.
	data, err := testRecord("0100110001").Save()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(id), data, 0o600); err != nil {
		t.Fatal(err)
	}
	first, second := getTwice(t, s, id)
	if first.WM != "0100110001" || second.WM != "0100110001" {
		t.Fatalf("rewritten record read back as %q, %q", first.WM, second.WM)
	}
}

func TestRecordCacheDelete(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Put(testRecord("101"))
	if err != nil {
		t.Fatal(err)
	}
	getTwice(t, s, id)
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete: %v, want ErrNotFound", err)
	}
	if s.cache.entries[id] != nil {
		t.Fatal("Delete left the cache entry")
	}
}

func TestRecordCacheCopiesTopLevelFields(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Put(testRecord("101"))
	if err != nil {
		t.Fatal(err)
	}
	first, second := getTwice(t, s, id)
	if first == second {
		t.Fatal("two Gets returned the same *core.Record")
	}
	first.WM, first.E, first.Domain = "000", 1, nil
	second.Secret, second.HasFrequencyChannel = "changed", true
	third, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if want := testRecord("101"); !reflect.DeepEqual(third, want) {
		t.Fatalf("changes to returned records leaked: Get = %+v, want %+v", third, want)
	}
}

func TestRecordCacheBound(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < core.DefaultScannerCacheEntries+10; i++ {
		id, err := s.Put(testRecord("101"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if n := s.cache.lru.Len(); n != len(s.cache.entries) || n > core.DefaultScannerCacheEntries {
			t.Fatalf("after %d records: %d cached, %d indexed, bound %d", i+1, n, len(s.cache.entries), core.DefaultScannerCacheEntries)
		}
	}
	// Least recently used out first: the earliest IDs are gone, the
	// latest are still cached.
	if s.cache.entries[ids[0]] != nil || s.cache.entries[ids[len(ids)-1]] == nil {
		t.Fatal("eviction is not least-recently-used")
	}
}
