package relation

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/stats"
)

// histogramOfOracle is HistogramOf as it was written before the coding
// pass: one string-keyed map assignment per row.
func histogramOfOracle(r *Relation, attr string) (*stats.Histogram, error) {
	j, ok := r.Schema().Index(attr)
	if !ok {
		return nil, fmt.Errorf("relation: unknown attribute %q", attr)
	}
	counts := make(map[string]int)
	for i := 0; i < r.Len(); i++ {
		counts[r.At(i, j)]++
	}
	return stats.HistogramOfCounts(counts), nil
}

// domainOfOracle is DomainOf as it was written before the coding pass:
// a seen-set over the rows, then NewDomain.
func domainOfOracle(r *Relation, attr string) (*Domain, error) {
	j, ok := r.Schema().Index(attr)
	if !ok {
		return nil, fmt.Errorf("relation: unknown attribute %q", attr)
	}
	if r.Len() == 0 {
		return nil, fmt.Errorf("relation: cannot derive domain of %q from empty relation", attr)
	}
	seen := make(map[string]bool)
	var values []string
	for i := 0; i < r.Len(); i++ {
		v := r.Tuple(i)[j]
		if !seen[v] {
			seen[v] = true
			values = append(values, v)
		}
	}
	return NewDomain(values)
}

// codedRelation has n rows whose attribute v draws from `distinct`
// labels, skewed toward the low ones so counts differ, between a key
// and a trailing column. Rows come in a random order of labels; when n
// allows, every label occurs.
func codedRelation(t testing.TB, n, distinct int, seed int64) *Relation {
	t.Helper()
	r := New(MustSchema([]Attribute{
		{Name: "k", Type: TypeInt},
		{Name: "v", Type: TypeString, Categorical: true},
		{Name: "w", Type: TypeString},
	}, "k"))
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(distinct)
	for i := 0; i < n; i++ {
		l := min(rng.Intn(distinct), rng.Intn(distinct))
		if i < distinct {
			l = perm[i]
		}
		r.MustAppend(Tuple{strconv.Itoa(i), "L" + strconv.Itoa(l), "w"})
	}
	return r
}

// histCounts flattens a histogram into a comparable map.
func histCounts(h *stats.Histogram) map[string]int {
	m := make(map[string]int, h.Distinct())
	for _, l := range h.Labels() {
		m[l] = h.Count(l)
	}
	return m
}

// histTotal is the occurrence total h's Freq divides by, read back
// through Freq (0 for an empty histogram).
func histTotal(h *stats.Histogram) int {
	labels := h.Labels()
	if len(labels) == 0 {
		return 0
	}
	return int(math.Round(float64(h.Count(labels[0])) / h.Freq(labels[0])))
}

// checkCoding holds a coding of a coded column to the column: every
// row's code names its value, labels are distinct, and the counts are
// the rows per code.
func checkCoding(t *testing.T, name string, c *Coding, r *Relation) {
	t.Helper()
	j, _ := r.Schema().Index(c.Attr)
	if len(c.Counts) != len(c.Labels) {
		t.Fatalf("%s: %d counts for %d labels", name, len(c.Counts), len(c.Labels))
	}
	counts := make([]int, len(c.Labels))
	for i := 0; i < r.Len(); i++ {
		code := r.CodeAt(i, j)
		if c.Labels[code] != r.Tuple(i)[j] {
			t.Fatalf("%s: row %d coded %q, holds %q", name, i, c.Labels[code], r.Tuple(i)[j])
		}
		counts[code]++
	}
	if !slices.Equal(counts, c.Counts) {
		t.Fatalf("%s: counts %v, want %v", name, c.Counts, counts)
	}
	seen := make(map[string]bool, len(c.Labels))
	for _, l := range c.Labels {
		if seen[l] {
			t.Fatalf("%s: label %q appears twice", name, l)
		}
		seen[l] = true
	}
}

// TestCodingMatchesMapOracles: across seeds, sizes and label counts —
// one distinct value, a handful, and more than 2^8 — HistogramOf,
// DomainOf and a CodeColumn's Histogram and Domain equal the map-based
// oracles, and the coding describes its column with labels in
// first-seen order.
func TestCodingMatchesMapOracles(t *testing.T) {
	for _, distinct := range []int{1, 7, 300} {
		for seed := int64(1); seed <= 4; seed++ {
			n := 1 + int(seed)*997
			r := codedRelation(t, n, distinct, seed)
			name := fmt.Sprintf("distinct %d seed %d", distinct, seed)
			wantH, _ := histogramOfOracle(r, "v")
			wantD, err := domainOfOracle(r, "v")
			if err != nil {
				t.Fatal(err)
			}
			gotH, err := HistogramOf(r, "v")
			if err != nil {
				t.Fatal(err)
			}
			gotD, err := DomainOf(r, "v")
			if err != nil {
				t.Fatal(err)
			}
			c, err := CodeColumn(r, "v")
			if err != nil {
				t.Fatal(err)
			}
			checkCoding(t, name, c, r)
			rows, prev := rowsOf(r), -1
			for i, l := range c.Labels {
				first := slices.IndexFunc(rows, func(t Tuple) bool { return t[1] == l })
				if first <= prev {
					t.Fatalf("%s: label %d %q is not in first-seen order", name, i, l)
				}
				prev = first
			}
			codedD, err := c.Domain()
			if err != nil {
				t.Fatal(err)
			}
			for form, h := range map[string]*stats.Histogram{"HistogramOf": gotH, "Coding.Histogram": c.Histogram()} {
				if !reflect.DeepEqual(histCounts(h), histCounts(wantH)) || histTotal(h) != histTotal(wantH) {
					t.Fatalf("%s: %s differs from the map oracle", name, form)
				}
			}
			for form, d := range map[string]*Domain{"DomainOf": gotD, "Coding.Domain": codedD} {
				if !slices.Equal(d.Values(), wantD.Values()) {
					t.Fatalf("%s: %s = %q, want %q", name, form, d.Values(), wantD.Values())
				}
			}
			if distinct > 256 && len(c.Labels) <= 256 {
				t.Fatalf("%s: only %d labels — the >2^8 case is vacuous", name, len(c.Labels))
			}
		}
	}
}

// TestCodingAfterRewrites: after in-place rewrites — to known labels,
// to new values, and emptying a label — CodeColumn describes the
// column, with the histogram and domain of the map oracles, and the
// emptied label keeps its code at a count of zero.
func TestCodingAfterRewrites(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := codedRelation(t, 3000, 40, seed)
		c, err := CodeColumn(r, "v")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < r.Len(); i += 1 + rng.Intn(20) {
			v := c.Labels[rng.Intn(len(c.Labels))]
			if rng.Intn(5) == 0 {
				v = "new-" + strconv.Itoa(rng.Intn(3))
			}
			if err := r.SetValue(i, "v", v); err != nil {
				t.Fatal(err)
			}
		}
		// Empty the first label entirely.
		gone := c.Labels[0]
		for i := 0; i < r.Len(); i++ {
			if r.Tuple(i)[1] == gone {
				if err := r.SetValue(i, "v", "new-0"); err != nil {
					t.Fatal(err)
				}
			}
		}
		if c, err = CodeColumn(r, "v"); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("seed %d", seed)
		checkCoding(t, name, c, r)
		if c.Counts[0] != 0 || c.Labels[0] != gone {
			t.Fatalf("%s: emptied label %q now %q with count %d; codes must not shift", name, gone, c.Labels[0], c.Counts[0])
		}
		wantH, _ := histogramOfOracle(r, "v")
		wantD, _ := domainOfOracle(r, "v")
		if got := c.Histogram(); !reflect.DeepEqual(histCounts(got), histCounts(wantH)) || histTotal(got) != histTotal(wantH) {
			t.Fatalf("%s: histogram after rewrites differs from the map oracle", name)
		}
		d, err := c.Domain()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(d.Values(), wantD.Values()) {
			t.Fatalf("%s: domain after rewrites %q, want %q", name, d.Values(), wantD.Values())
		}
	}
}

func TestCodingErrors(t *testing.T) {
	r := codedRelation(t, 0, 3, 1)
	if _, err := CodeColumn(r, "ghost"); err == nil {
		t.Fatal("unknown attribute coded")
	}
	c, err := CodeColumn(r, "v")
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Domain()
	_, want := DomainOf(r, "v")
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("empty coding Domain error %v, DomainOf's %v", err, want)
	}
	if h := c.Histogram(); histTotal(h) != 0 || h.Distinct() != 0 {
		t.Fatalf("empty coding histogram %d/%d", histTotal(h), h.Distinct())
	}
}

// TestCodeColumnAllocsIndependentOfRows: CodeColumn counts the codes
// in place and allocates per distinct value, not per row, so a 36k-row
// column over the same three values costs what a 9k-row one does.
func TestCodeColumnAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	allocs := make(map[int]float64)
	for _, n := range []int{9000, 36000} {
		r := buildNumbered(t, n)
		allocs[n] = testing.AllocsPerRun(5, func() {
			if _, err := CodeColumn(r, "v"); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("CodeColumn: %.0f allocs at 9k rows, %.0f at 36k", allocs[9000], allocs[36000])
	if allocs[36000] != allocs[9000] {
		t.Fatalf("CodeColumn allocations depend on the row count: %.0f at 9k rows, %.0f at 36k", allocs[9000], allocs[36000])
	}
}

// TestCodePlainColumnInPlace: Code on a plain column of mostly
// distinct values codes it in place over the arena it already has, with
// the labels referencing their first occurrence's bytes; every value
// reads as before, Slots then gives codes (a new value the next label),
// and a clone taken before keeps its plain column untouched by later
// slot stores.
func TestCodePlainColumnInPlace(t *testing.T) {
	r := codedRelation(t, 5000, 3, 7)
	j, _ := r.Schema().Index("k")
	for i := 0; i < r.Len(); i += 10 {
		if err := r.SetValueAt(i, j, "0"); err != nil { // a repeated key
			t.Fatal(err)
		}
	}
	before := r.Clone()
	want := rowsOf(r)
	arena := unsafe.SliceData(r.cols[j].arena)
	r.Code(j)
	if !r.cols[j].coded || unsafe.SliceData(r.cols[j].arena) != arena {
		t.Fatal("Code did not code the plain column over its own arena")
	}
	if got := rowsOf(r); !reflect.DeepEqual(got, want) {
		t.Fatal("Code changed a value")
	}
	slots, err := r.Slots(j, "17", "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if uint64(r.CodeAt(17, j)) != slots[0] || r.At(17, j) != "17" {
		t.Fatalf("row 17 coded %d, Slots gave %d", r.CodeAt(17, j), slots[0])
	}
	c, err := CodeColumn(r, "k")
	if err != nil {
		t.Fatal(err)
	}
	checkCoding(t, "coded key", c, r)
	if int(slots[1]) != len(c.Labels)-1 || c.Labels[slots[1]] != "fresh" || c.Counts[slots[1]] != 0 {
		t.Fatalf("new value coded %d of %d labels", slots[1], len(c.Labels))
	}
	for i := 0; i < r.Len(); i += 7 {
		r.SetSlotAt(i, j, slots[1])
	}
	if got := rowsOf(before); !reflect.DeepEqual(got, want) || before.cols[j].coded {
		t.Fatal("the clone taken before Code changed")
	}
	if r.At(7, j) != "fresh" || r.At(8, j) != "8" {
		t.Fatalf("after slot stores rows hold %q, %q", r.At(7, j), r.At(8, j))
	}
}

// TestSlotsOnPlainColumn: Slots leaves a plain column plain, appending
// each value's bytes once; storing the slots rewrites the rows they are
// stored in, and nothing else; Holds compares values, not slots; and
// SetSlotAt refuses a slot past the arena or a code past the label table.
func TestSlotsOnPlainColumn(t *testing.T) {
	r := codedRelation(t, 300, 3, 9)
	j, _ := r.Schema().Index("k")
	want := rowsOf(r)
	arenaLen := len(r.cols[j].arena)
	slots, err := r.Slots(j, "x", "yy", "x")
	if err != nil {
		t.Fatal(err)
	}
	if r.cols[j].coded || len(r.cols[j].arena) != arenaLen+4 {
		t.Fatalf("Slots coded the column or grew its arena by %d bytes", len(r.cols[j].arena)-arenaLen)
	}
	if !reflect.DeepEqual(rowsOf(r), want) {
		t.Fatal("Slots changed a value")
	}
	for i := 0; i < r.Len(); i += 3 {
		r.SetSlotAt(i, j, slots[i%2])
		want[i][0] = []string{"x", "yy"}[i%2]
	}
	if !reflect.DeepEqual(rowsOf(r), want) {
		t.Fatal("slot stores differ from the rewrites they stand for")
	}
	if !r.Holds(0, j, slots[0]) || !r.Holds(0, j, slots[2]) || r.Holds(3, j, slots[0]) || !r.Holds(3, j, slots[1]) || r.Holds(1, j, slots[0]) {
		t.Fatal("Holds disagrees with the values stored")
	}
	v, _ := r.Schema().Index("v")
	if cv := r.refs[v]; !r.Holds(0, v, cv) || r.Holds(0, v, cv+1) {
		t.Fatal("Holds disagrees with a coded row's code")
	}
	for _, bad := range []struct {
		col  int
		slot uint64
	}{{j, uint64(len(r.cols[j].arena)+1) << lenBits}, {j, (uint64(len(r.cols[j].arena))-1)<<lenBits | 2}, {v, uint64(len(r.cols[v].labels))}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetSlotAt of slot %#x in column %d did not panic", bad.slot, bad.col)
				}
			}()
			r.SetSlotAt(0, bad.col, bad.slot)
		}()
	}
}
