package core

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/keyhash"
	"repro/internal/relation"
)

// TestVerifyBatchBlockKnobsEquivalence proves the Spec/BatchOptions
// knobs are pure execution strategy: every combination of hash kernel
// and block size — -1 included, which means the default — returns
// reports bit-identical to the defaults, and the progress hook counts
// each suspect tuple exactly once per pass.
func TestVerifyBatchBlockKnobsEquivalence(t *testing.T) {
	suspect, records := batchTestCatalog(t, 3000, 5)
	var csv strings.Builder
	if err := relation.WriteCSV(&csv, suspect); err != nil {
		t.Fatal(err)
	}
	scan := func(opts BatchOptions) []BatchReport {
		t.Helper()
		src, err := relation.NewCSVBlockReader(strings.NewReader(csv.String()), suspect.Schema())
		if err != nil {
			t.Fatal(err)
		}
		outs, err := VerifyBatch(context.Background(), records, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}

	want := scan(BatchOptions{})
	if want[0].Err != nil || want[0].Report.Match != 1 {
		t.Fatalf("owner certificate should match: %+v", want[0])
	}

	kinds := []keyhash.KernelKind{keyhash.KernelAuto, keyhash.KernelPortable}
	if _, err := keyhash.NewKey("probe").NewKernel(keyhash.KernelMultiBuffer); err == nil {
		kinds = append(kinds, keyhash.KernelMultiBuffer)
	}
	for _, kind := range kinds {
		for _, blockSize := range []int{-1, 1, 37, 512, 1 << 20} {
			var ticks atomic.Int64
			got := scan(BatchOptions{
				Workers:    2,
				HashKernel: kind,
				BlockSize:  blockSize,
				Cache:      NewScannerCache(8),
				Progress:   func(tuples int) { ticks.Add(int64(tuples)) },
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("kernel %q blockSize %d: batch reports diverged from defaults", kind, blockSize)
			}
			if ticks.Load() != int64(suspect.Len()) {
				t.Fatalf("kernel %q blockSize %d: progress %d, want %d",
					kind, blockSize, ticks.Load(), suspect.Len())
			}
		}
	}
}

// TestScannerCacheKeysByKernel proves prepared-state cache entries do
// not alias across hash-kernel kinds: the same certificate prepared
// under two kinds occupies two entries, and re-preparing under either
// hits.
func TestScannerCacheKeysByKernel(t *testing.T) {
	_, records := batchTestCatalog(t, 500, 1)
	rec := records[0]
	cache := NewScannerCache(8)
	if _, err := cache.prepared(rec, keyhash.KernelAuto); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.prepared(rec, keyhash.KernelPortable); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Entries != 2 || st.Misses != 2 {
		t.Fatalf("want 2 entries / 2 misses, got %+v", st)
	}
	if _, err := cache.prepared(rec, keyhash.KernelPortable); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("want 1 hit after re-prepare, got %+v", st)
	}
}

// TestSpecHashKernelRejected pins the error path: an unknown kernel name
// fails watermarking up front instead of silently falling back.
func TestSpecHashKernelRejected(t *testing.T) {
	suspect, _ := batchTestCatalog(t, 300, 1)
	_, _, err := Watermark(suspect.Clone(), Spec{
		Secret:     "kernel-err",
		Attribute:  "Item_Nbr",
		WM:         "1011",
		E:          20,
		HashKernel: keyhash.KernelKind("bogus"),
	})
	if err == nil || !strings.Contains(err.Error(), "unknown hash kernel") {
		t.Fatalf("want unknown-kernel error, got %v", err)
	}
}
