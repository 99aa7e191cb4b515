package relation_test

import (
	"bytes"
	"io"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/datagen"
	"repro/internal/freq"
	"repro/internal/relation"
)

// storageSpans returns the sorted byte ranges [start, end) of every
// non-empty value in r — ranges of the column arenas its values are
// read from.
func storageSpans(r *relation.Relation) [][2]uintptr {
	var spans [][2]uintptr
	for i := 0; i < r.Len(); i++ {
		for _, v := range r.Tuple(i) {
			if v != "" {
				p := uintptr(unsafe.Pointer(unsafe.StringData(v)))
				spans = append(spans, [2]uintptr{p, p + uintptr(len(v))})
			}
		}
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a][0] < spans[b][0] })
	return spans
}

// pins reports whether s's bytes lie inside one of spans.
func pins(spans [][2]uintptr, s string) bool {
	if s == "" {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	i := sort.Search(len(spans), func(i int) bool { return spans[i][0] > p }) - 1
	return i >= 0 && p < spans[i][1]
}

// TestDerivedValuesDoNotPinRelation: values that outlive a relation —
// a domain, a certificate's frequency profile — must own their bytes,
// not keep a column arena of a ReadCSV relation reachable.
func TestDerivedValuesDoNotPinRelation(t *testing.T) {
	clean, _, err := datagen.ItemScan(datagen.ItemScanConfig{N: 3000, CatalogSize: 40, ZipfS: 1.1, Seed: "pin"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := relation.WriteCSV(&buf, clean); err != nil {
		t.Fatal(err)
	}
	r, err := relation.ReadCSV(&buf, clean.Schema())
	if err != nil {
		t.Fatal(err)
	}
	spans := storageSpans(r)
	// The check itself must see the relation's own values.
	if !pins(spans, r.Tuple(r.Len() - 1)[1]) {
		t.Fatal("span check misses the relation's own values")
	}

	dom, err := relation.DomainOf(r, "Item_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	column := make([]string, r.Len())
	for i := range column {
		column[i] = r.Tuple(i)[1]
	}
	catalog, err := relation.NewDomain(column)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := freq.ProfileOf(r, "Item_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	hist, err := relation.HistogramOf(r, "Item_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	coding, err := relation.CodeColumn(r, "Item_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, values []string) {
		t.Helper()
		for _, v := range values {
			if pins(spans, v) {
				t.Fatalf("%s value %q points into the relation's column storage", what, v)
			}
		}
	}
	check("DomainOf", dom.Values())
	check("NewDomain", catalog.Values())
	check("HistogramOf", hist.Labels())
	check("CodeColumn", coding.Labels)
	keys := make([]string, 0, len(profile))
	for k := range profile {
		keys = append(keys, k)
	}
	check("ProfileOf", keys)
}

// BenchmarkMaterialize measures building a 40k-row ItemScan relation:
// Clone, and ReadCSV/ReadJSONL of its encoding.
func BenchmarkMaterialize(b *testing.B) {
	r := itemScan40k(b)
	var csvBuf, jsonlBuf bytes.Buffer
	if err := relation.WriteCSV(&csvBuf, r); err != nil {
		b.Fatal(err)
	}
	if err := relation.WriteJSONL(&jsonlBuf, r); err != nil {
		b.Fatal(err)
	}
	b.Run("Clone", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			r.Clone()
		}
	})
	read := func(data []byte, readFn func(io.Reader, *relation.Schema) (*relation.Relation, error)) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for b.Loop() {
				if _, err := readFn(bytes.NewReader(data), r.Schema()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("ReadCSV", read(csvBuf.Bytes(), relation.ReadCSV))
	b.Run("ReadJSONL", read(jsonlBuf.Bytes(), relation.ReadJSONL))
}

// itemScan40k is the 40k-row ItemScan relation the column benchmarks
// count.
func itemScan40k(b *testing.B) *relation.Relation {
	b.Helper()
	r, _, err := datagen.ItemScan(datagen.ItemScanConfig{N: 40_000, CatalogSize: 60, ZipfS: 1.3, Seed: "materialize"})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkCodeColumn measures counting the Item_Nbr column of a 40k-row
// ItemScan relation per label.
func BenchmarkCodeColumn(b *testing.B) {
	r := itemScan40k(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := relation.CodeColumn(r, "Item_Nbr"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistogramOf measures the Item_Nbr histogram of a 40k-row
// ItemScan relation.
func BenchmarkHistogramOf(b *testing.B) {
	r := itemScan40k(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := relation.HistogramOf(r, "Item_Nbr"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelationGC reports the cost of one runtime.GC() (ns/op) with
// a live 40k-row ItemScan relation, its Clone and a ReadCSV copy of it:
// the mark work materialized relations put on every collection.
func BenchmarkRelationGC(b *testing.B) {
	r, _, err := datagen.ItemScan(datagen.ItemScanConfig{N: 40_000, CatalogSize: 60, ZipfS: 1.3, Seed: "relation-gc"})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := relation.WriteCSV(&buf, r); err != nil {
		b.Fatal(err)
	}
	read, err := relation.ReadCSV(&buf, r.Schema())
	if err != nil {
		b.Fatal(err)
	}
	clone := r.Clone()
	runtime.GC()
	for b.Loop() {
		runtime.GC()
	}
	runtime.KeepAlive(r)
	runtime.KeepAlive(clone)
	runtime.KeepAlive(read)
}
