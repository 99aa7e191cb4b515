package relation

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/stats"
)

// ReadCSV and ReadJSONL drain the block readers into the relation's
// column storage; ReadAll over the legacy row readers is their
// oracle. Beyond the block readers' own row parity they must agree on
// the relation itself: accept/reject, and every row in order, a row
// that repeats a key included.

// compareMaterialized checks ReadCSV or ReadJSONL against ReadAll over
// the matching row reader.
func compareMaterialized(t *testing.T, format, in string) {
	t.Helper()
	schema := rowioSchema(t)
	var want, got *Relation
	var wantErr, gotErr error
	switch format {
	case "csv":
		got, gotErr = ReadCSV(strings.NewReader(in), schema)
		var rr *CSVRowReader
		if rr, wantErr = NewCSVRowReader(strings.NewReader(in), schema); wantErr == nil {
			want, wantErr = ReadAll(rr)
		}
	case "jsonl":
		got, gotErr = ReadJSONL(strings.NewReader(in), schema)
		want, wantErr = ReadAll(NewJSONLRowReader(strings.NewReader(in), schema))
	default:
		t.Fatalf("unknown format %q", format)
	}
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("%s accept/reject disagreement on %q: ReadAll %v, Read%s %v",
			format, in, wantErr, strings.ToUpper(format), gotErr)
	}
	if wantErr != nil {
		return
	}
	if !got.Equal(want) {
		t.Fatalf("%s rows disagree on %q:\nReadAll: %q\ngot:     %q", format, in, rowsOf(want), rowsOf(got))
	}
}

// manyRows returns n data rows as CSV (with a header) or JSONL, with
// row dupAt (1-based, 0 for none) reusing row 1's key: a repeated key
// that sits blocks after its first row, read as a row of its own.
func manyRows(format string, n, dupAt int) string {
	var sb strings.Builder
	if format == "csv" {
		sb.WriteString("Visit_Nbr,Item_Nbr\n")
	}
	for i := 1; i <= n; i++ {
		key := i
		if i == dupAt {
			key = 1
		}
		if format == "csv" {
			fmt.Fprintf(&sb, "%d,%d\n", key, 10+i%7)
		} else {
			fmt.Fprintf(&sb, "{\"Item_Nbr\":\"%d\",\"Visit_Nbr\":\"%d\"}\n", 10+i%7, key)
		}
	}
	return sb.String()
}

var csvMaterializeCases = []string{
	"Visit_Nbr,Item_Nbr\n1,10\n2,11\n1,12\n",    // duplicate key
	"Visit_Nbr,Item_Nbr\n1,10\n1,11\n2\n",       // duplicate before a parse error
	"Visit_Nbr,Item_Nbr\n1,10\n2\n1,11\n",       // parse error before a duplicate
	"Visit_Nbr,Item_Nbr\n1,10\n1,11\n\"2,3\n",   // duplicate before an unterminated quote
	"Item_Nbr,Visit_Nbr\n10,1\n11,2\n12,1\n",    // reordered columns, duplicate
	"Visit_Nbr,Item_Nbr\n\"1\",10\n1,11\n",      // duplicate hidden by quoting
	"Visit_Nbr,Item_Nbr\n,10\n,11\n",            // duplicate empty key
	"Visit_Nbr,Item_Nbr\n1,\"a\nb\"\n2,\"c\"\n", // multi-line field
	manyRows("csv", 1500, 0),
	manyRows("csv", 1500, 1300),
}

var jsonlMaterializeCases = []string{
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"10\"}\n{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"11\"}\n",                               // duplicate key
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"10\"}\n{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"11\"}\n{\"Visit_Nbr\":\"2\"}\n",        // duplicate before a parse error
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"10\"}\n{\"Visit_Nbr\":\"2\"}\n{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"11\"}\n",        // parse error before a duplicate
	"{\"Item_Nbr\":\"10\",\"Visit_Nbr\":\"1\"}\n{\"Visit_Nbr\":\"\\u0031\",\"Item_Nbr\":\"11\"}\n",                         // duplicate hidden by an escape
	"{\"Visit_Nbr\":null,\"Item_Nbr\":\"10\"}\n{\"Visit_Nbr\":\"\",\"Item_Nbr\":\"11\"}\n",                                 // null and "" collide
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"10\"}\n{\"Visit_Nbr\":\"2\",\"Item_Nbr\":\"11\"}\n{\"Visit_Nbr\":\"1\"}garbage\n", // truncated duplicate
	manyRows("jsonl", 1500, 0),
	manyRows("jsonl", 1500, 1300),
}

func TestReadCSVMatchesReadAll(t *testing.T) {
	for _, in := range append(append([]string(nil), csvOracleCases...), csvMaterializeCases...) {
		compareMaterialized(t, "csv", in)
	}
}

func TestReadJSONLMatchesReadAll(t *testing.T) {
	for _, in := range append(append([]string(nil), jsonlOracleCases...), jsonlMaterializeCases...) {
		compareMaterialized(t, "jsonl", in)
	}
}

func TestCloneIndependenceBothWays(t *testing.T) {
	r := buildNumbered(t, 4) // rows (0,a,b) (1,b,c) (2,c,a) (3,a,b)
	c := r.Clone()
	// Clone -> original, key and non-key column.
	if err := c.SetValue(0, "k", "100"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetValue(1, "v", "z"); err != nil {
		t.Fatal(err)
	}
	if r.Key(0) != "0" || r.Tuple(1)[1] != "b" {
		t.Fatalf("clone writes leaked into the original: %q", rowsOf(r))
	}
	// Original -> clone.
	if err := r.SetValue(2, "k", "200"); err != nil {
		t.Fatal(err)
	}
	if err := r.SetValue(3, "v", "y"); err != nil {
		t.Fatal(err)
	}
	if c.Key(2) != "2" || c.Tuple(3)[1] != "a" || c.Key(0) != "100" {
		t.Fatalf("original writes leaked into the clone: %q", rowsOf(c))
	}
}

// TestTupleAppendStaysInRow: tuples cut from one backing slice have
// their capacity capped, so an append on one cannot overwrite the next.
func TestTupleAppendStaysInRow(t *testing.T) {
	read, err := ReadCSV(strings.NewReader(manyRows("csv", 20, 0)), rowioSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Relation{"Clone": buildNumbered(t, 20).Clone(), "ReadCSV": read} {
		next := r.Tuple(1).Clone()
		_ = append(r.Tuple(0), "spill", "spill")
		if !slices.Equal(r.Tuple(1), next) {
			t.Fatalf("%s: append on Tuple(0) changed Tuple(1) to %q", name, r.Tuple(1))
		}
	}
}

// TestCloneAllocsConstant pins Clone at a fixed number of allocations
// whatever the row count.
func TestCloneAllocsConstant(t *testing.T) {
	small, large := buildNumbered(t, 10), buildNumbered(t, 40_000)
	a := testing.AllocsPerRun(5, func() { small.Clone() })
	b := testing.AllocsPerRun(5, func() { large.Clone() })
	t.Logf("Clone: %v allocations at 10 rows, %v at 40000", a, b)
	if a != b || b > 3 {
		t.Fatalf("Clone allocations: %v at 10 rows, %v at 40000 rows; want the same constant <= 3", a, b)
	}
}

// TestReadCSVAllocsPerRow pins ReadCSV at a few allocations per block,
// far below one per row.
func TestReadCSVAllocsPerRow(t *testing.T) {
	const rows = 36_000
	in := manyRows("csv", rows, 0)
	schema := rowioSchema(t)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ReadCSV(strings.NewReader(in), schema); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ReadCSV: %v allocations for %d rows", allocs, rows)
	if perRow := allocs / rows; perRow >= 0.05 {
		t.Fatalf("ReadCSV: %v allocations for %d rows (%.3f per row), want < 0.05 per row", allocs, rows, perRow)
	}
}

// TestReadCSVBytesPerRow: reading an input that reports its length
// sizes the relation from the rate read so far instead of regrowing it
// block by block. The relation keeps about 21 bytes a row here (16 of
// references, about 5 of key arena; the coded Item_Nbr holds its seven
// labels alone). The first block's short keys make the row estimate
// run high and the key arena's low, which re-estimates once at its
// first regrowth, so ReadCSV allocates about 32.5, and the bound leaves
// about 10% over that.
func TestReadCSVBytesPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volumes vary under the race detector")
	}
	const rows = 36_000
	in := []byte(manyRows("csv", rows, 0))
	schema := rowioSchema(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := ReadCSV(bytes.NewReader(in), schema)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / rows
	t.Logf("ReadCSV: %.1f bytes allocated per row", perRow)
	if perRow > 36 {
		t.Fatalf("ReadCSV allocated %.1f bytes per row, want at most 36", perRow)
	}
	runtime.KeepAlive(r)
}

// TestHistogramOfMatchesAdd: the one-assignment-per-row count builds the
// same histogram as adding each row's value.
func TestHistogramOfMatchesAdd(t *testing.T) {
	for _, n := range []int{0, 1, 500} {
		r := buildNumbered(t, n)
		h, err := HistogramOf(r, "v")
		if err != nil {
			t.Fatal(err)
		}
		want := stats.HistogramOfCounts(map[string]int{})
		for i := 0; i < r.Len(); i++ {
			want.Add(r.Tuple(i)[1])
		}
		if histTotal(h) != histTotal(want) || h.Distinct() != want.Distinct() {
			t.Fatalf("n=%d: total/distinct %d/%d, want %d/%d", n, histTotal(h), h.Distinct(), histTotal(want), want.Distinct())
		}
		if !slices.Equal(h.Labels(), want.Labels()) {
			t.Fatalf("n=%d: labels %q, want %q", n, h.Labels(), want.Labels())
		}
		for _, l := range want.Labels() {
			if h.Count(l) != want.Count(l) {
				t.Fatalf("n=%d: Count(%q) = %d, want %d", n, l, h.Count(l), want.Count(l))
			}
		}
	}
}
