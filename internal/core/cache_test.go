package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/keyhash"
	"repro/internal/relation"
)

// TestScannerCacheSharesDomains pins domain interning: entries whose
// certificates carry the same domain list share one *relation.Domain,
// evicting one of them leaves the other usable, the last eviction drops
// the interned domain, and certificates with different domains never
// alias.
func TestScannerCacheSharesDomains(t *testing.T) {
	suspect, records := batchTestCatalog(t, 3000, 3)
	a, b := records[1], records[2] // same domain list, different owners
	other := *records[1]
	other.Secret = "other-domain-owner"
	other.Domain = append(append([]string(nil), a.Domain...), "extra-value")
	c := &other

	cache := NewScannerCache(2)
	pa, err := cache.prepared(a, keyhash.KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := cache.prepared(b, keyhash.KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	if pa == pb {
		t.Fatal("different certificates share one prepared entry")
	}
	if pa.opts.Domain != pb.opts.Domain {
		t.Fatal("equal domain lists were not interned to one *Domain")
	}
	if len(cache.domains) != 1 || cache.domains[domainDigest(a.Domain)].refs != 2 {
		t.Fatalf("want one interned domain held by 2 entries, got %d domains", len(cache.domains))
	}

	// c evicts a (capacity 2): b keeps the shared domain, c gets its own.
	pc, err := cache.prepared(c, keyhash.KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	if pc.opts.Domain == pb.opts.Domain {
		t.Fatal("different domain lists aliased one *Domain")
	}
	if pc.opts.Domain.Size() != pb.opts.Domain.Size()+1 {
		t.Fatalf("domain sizes %d and %d: the extra value is missing", pc.opts.Domain.Size(), pb.opts.Domain.Size())
	}
	if got := cache.domains[domainDigest(a.Domain)]; got == nil || got.refs != 1 || got.dom != pb.opts.Domain {
		t.Fatal("evicting one sharer did not leave the other holding the interned domain")
	}
	want, err := b.VerifyWith(suspect, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := VerifyBatch(context.Background(), []*Record{b, c}, csvStream(t, suspect), BatchOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].Err != nil || reps[0].Report.Match != want.Match || reps[0].Report.Detected != want.Detected {
		t.Fatalf("surviving sharer after eviction: got %+v, want match %v detected %s", reps[0], want.Match, want.Detected)
	}
	if st := cache.Stats(); st.Hits != 2 {
		t.Fatalf("the batch should have hit both cached entries, got %+v", st)
	}

	// Re-preparing a evicts b. a joins the interned domain before b
	// leaves it, so the domain survives, held by a alone.
	pa2, err := cache.prepared(a, keyhash.KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	if pa2.opts.Domain != pb.opts.Domain {
		t.Fatal("re-prepared certificate did not rejoin the interned domain")
	}
	if len(cache.domains) != 2 || cache.domains[domainDigest(a.Domain)].refs != 1 {
		t.Fatalf("want 2 interned domains held once each, got %d", len(cache.domains))
	}

	// Evicting every holder drops the interned domains.
	for i := 0; i < 2; i++ {
		fresh := *c
		fresh.Secret = "filler-" + string(rune('a'+i))
		fresh.Domain = []string{"x", "y", string(rune('p' + i))}
		if _, err := cache.prepared(&fresh, keyhash.KernelAuto); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := cache.domains[domainDigest(a.Domain)]; ok || len(cache.domains) != 2 {
		t.Fatalf("evicted domains still interned: %d entries", len(cache.domains))
	}
}

// TestPrepareBatchWithoutCacheMatchesCached shows the call-local cache
// PrepareBatch uses without BatchOptions.Cache changes no verdict: the
// reports equal those of a shared cache and of no interning at all
// (each certificate's own Verify).
func TestPrepareBatchWithoutCacheMatchesCached(t *testing.T) {
	suspect, records := batchTestCatalog(t, 3000, 4)
	uncached, err := VerifyBatch(context.Background(), records, csvStream(t, suspect), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := VerifyBatch(context.Background(), records, csvStream(t, suspect), BatchOptions{Cache: NewScannerCache(2)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(uncached, cached) {
		t.Fatal("uncached and cached batch reports differ")
	}
	for i, rec := range records {
		rep, err := rec.VerifyWith(suspect, VerifyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if uncached[i].Report.Detected != rep.Detected || uncached[i].Report.Match != rep.Match {
			t.Fatalf("record %d: batch detected %s, Verify %s", i, uncached[i].Report.Detected, rep.Detected)
		}
	}
}

func csvStream(t *testing.T, r *relation.Relation) relation.BlockReader {
	t.Helper()
	var b strings.Builder
	if err := relation.WriteCSV(&b, r); err != nil {
		t.Fatal(err)
	}
	src, err := relation.NewCSVBlockReader(strings.NewReader(b.String()), r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return src
}
