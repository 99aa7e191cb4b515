package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

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

// checkCoding holds a coding to the column it codes: every row's code
// names its value, labels are distinct, and the counts are the rows
// per code.
func checkCoding(t *testing.T, name string, c *Coding, r *Relation) {
	t.Helper()
	j, _ := r.Schema().Index(c.Attr)
	if len(c.Codes) != r.Len() || len(c.Counts) != len(c.Labels) {
		t.Fatalf("%s: %d codes for %d rows, %d counts for %d labels", name, len(c.Codes), r.Len(), len(c.Counts), len(c.Labels))
	}
	counts := make([]int, len(c.Labels))
	for i, code := range c.Codes {
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
			for i, l := range c.Labels {
				first := 0
				for first < r.Len() && r.At(first, 1) != l {
					first++
				}
				if slices.Index(c.Codes, int32(i)) != first {
					t.Fatalf("%s: label %d %q is not in first-seen order", name, i, l)
				}
			}
			codedD, err := c.Domain()
			if err != nil {
				t.Fatal(err)
			}
			for form, h := range map[string]*stats.Histogram{"HistogramOf": gotH, "Coding.Histogram": c.Histogram()} {
				if !reflect.DeepEqual(histCounts(h), histCounts(wantH)) || h.Total() != wantH.Total() {
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

// TestCodingRefresh: after in-place rewrites — to known labels, to new
// values, and emptying a label — Refresh leaves the coding describing
// the column, with the histogram and domain of the map oracles, and the
// emptied label keeps its code at a count of zero.
func TestCodingRefresh(t *testing.T) {
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
		c.Refresh(r)
		name := fmt.Sprintf("seed %d", seed)
		checkCoding(t, name, c, r)
		if c.Counts[0] != 0 || c.Labels[0] != gone {
			t.Fatalf("%s: emptied label %q now %q with count %d; codes must not shift", name, gone, c.Labels[0], c.Counts[0])
		}
		wantH, _ := histogramOfOracle(r, "v")
		wantD, _ := domainOfOracle(r, "v")
		if got := c.Histogram(); !reflect.DeepEqual(histCounts(got), histCounts(wantH)) || got.Total() != wantH.Total() {
			t.Fatalf("%s: refreshed histogram differs from the map oracle", name)
		}
		d, err := c.Domain()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(d.Values(), wantD.Values()) {
			t.Fatalf("%s: refreshed domain %q, want %q", name, d.Values(), wantD.Values())
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
	if h := c.Histogram(); h.Total() != 0 || h.Distinct() != 0 {
		t.Fatalf("empty coding histogram %d/%d", h.Total(), h.Distinct())
	}
}

// TestCodeColumnAllocsIndependentOfRows: CodeColumn reads the column in
// place (At) and allocates per distinct value, not per row, so a 36k-row
// column over the same three values costs what a 9k-row one does; a
// Refresh with nothing rewritten allocates nothing.
func TestCodeColumnAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	allocs := make(map[int]float64)
	for _, n := range []int{9000, 36000} {
		r := buildNumbered(t, n)
		var c *Coding
		allocs[n] = testing.AllocsPerRun(5, func() {
			var err error
			if c, err = CodeColumn(r, "v"); err != nil {
				t.Fatal(err)
			}
		})
		if refresh := testing.AllocsPerRun(5, func() { c.Refresh(r) }); refresh != 0 {
			t.Fatalf("n=%d: Refresh with nothing rewritten allocates %.0f times", n, refresh)
		}
	}
	t.Logf("CodeColumn: %.0f allocs at 9k rows, %.0f at 36k", allocs[9000], allocs[36000])
	if allocs[36000] != allocs[9000] {
		t.Fatalf("CodeColumn allocations depend on the row count: %.0f at 9k rows, %.0f at 36k", allocs[9000], allocs[36000])
	}
}
