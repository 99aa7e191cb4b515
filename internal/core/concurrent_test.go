package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
)

// TestScannerCacheConcurrentVerifyBatch hammers one small shared cache
// from concurrent whole-catalog VerifyBatch calls — the wmserver audit
// pattern — and checks, under -race in CI, that every report stays
// bit-identical to the uncached pass and that the hit/miss accounting
// stays consistent with the number of lookups while evictions churn.
func TestScannerCacheConcurrentVerifyBatch(t *testing.T) {
	suspect, records := batchTestCatalog(t, 2000, 8)
	want, err := VerifyBatch(context.Background(), records, relation.Rows(suspect), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, iters = 6, 5
	cache := NewScannerCache(3) // far smaller than the catalog: constant eviction
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < iters; iter++ {
				got, err := VerifyBatch(context.Background(), records, relation.Rows(suspect),
					BatchOptions{Workers: 2, Cache: cache})
				if err != nil {
					errs <- err
					return
				}
				for i := range got {
					if got[i].Err != nil {
						errs <- fmt.Errorf("g%d record %d: %w", g, i, got[i].Err)
						return
					}
					if !reflect.DeepEqual(got[i].Report, want[i].Report) {
						errs <- fmt.Errorf("g%d record %d: cached batch report diverged", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := cache.Stats()
	if st.Entries > 3 {
		t.Fatalf("cache exceeded its bound: %+v", st)
	}
	// Every VerifyBatch prepares each certificate exactly once, so the
	// lookup ledger must balance: hits + misses == calls × catalog size.
	// (Duplicate derivations after a racy miss count as misses too — the
	// invariant still holds because the ledger is bumped per lookup, not
	// per insertion.)
	lookups := uint64(goroutines * iters * len(records))
	if st.Hits+st.Misses != lookups {
		t.Fatalf("hit/miss ledger inconsistent: %d + %d != %d lookups (%+v)",
			st.Hits, st.Misses, lookups, st)
	}
	if st.Misses < uint64(len(records)) {
		t.Fatalf("fewer misses than certificates — first derivations unaccounted: %+v", st)
	}
}

// countingReader serves blocks of synthetic rows and cancels the
// attached context after gateAt rows — the core-level twin of the
// pipeline cancellation test, driven through VerifyBatch.
type countingReader struct {
	schema *relation.Schema
	total  int
	gateAt int
	cancel context.CancelFunc
	served atomic.Int64
}

func (c *countingReader) Schema() *relation.Schema { return c.schema }

func (c *countingReader) ReadBlock(b *relation.Block, maxRows int) (int, error) {
	b.Reset(c.schema)
	for b.Rows() < maxRows {
		n := int(c.served.Load()) + 1
		if n > c.total {
			break
		}
		c.served.Store(int64(n))
		if n == c.gateAt && c.cancel != nil {
			c.cancel()
		}
		if err := b.AppendTuple(relation.Tuple{strconv.Itoa(n), strconv.Itoa(n % 7)}); err != nil {
			return b.Rows(), err
		}
	}
	if b.Rows() == 0 {
		return 0, io.EOF
	}
	return b.Rows(), nil
}

// TestVerifyBatchCancelledMidScan asserts a cancelled context fails the
// audit with ctx.Err() and stops pulling suspect rows well before the
// stream drains — the property job cancellation and client disconnects
// rely on.
func TestVerifyBatchCancelledMidScan(t *testing.T) {
	_, records := batchTestCatalog(t, 2000, 4)
	schema, err := relation.ParseSchemaSpec("Visit_Nbr:int!key, Item_Nbr:int:categorical")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const total = 400_000
	src := &countingReader{schema: schema, total: total, gateAt: 5_000, cancel: cancel}

	_, err = VerifyBatch(ctx, records, src, BatchOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("VerifyBatch after cancel: err = %v, want context.Canceled", err)
	}
	if served := src.served.Load(); served >= total {
		t.Fatalf("reader was drained (%d rows) despite cancellation", served)
	}
}

// TestVerifyContextCancelled asserts the materialized verify path honors
// an already-cancelled context instead of scanning.
func TestVerifyContextCancelled(t *testing.T) {
	suspect, records := batchTestCatalog(t, 2000, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := records[0].VerifyContext(ctx, suspect, VerifyOptions{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("VerifyContext under cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, _, err := WatermarkContext(ctx, suspect, Spec{
		Secret: "cancelled", Attribute: "Item_Nbr", WM: "1011", E: 20, Workers: 4,
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("WatermarkContext under cancelled ctx: err = %v, want context.Canceled", err)
	}
}
