package relation

import (
	"fmt"
	"slices"
	"strconv"
	"testing"

	"repro/internal/stats"
)

func buildNumbered(t *testing.T, n int) *Relation {
	t.Helper()
	s := MustSchema([]Attribute{
		{Name: "k", Type: TypeInt},
		{Name: "v", Type: TypeString, Categorical: true},
		{Name: "w", Type: TypeString, Categorical: true},
	}, "k")
	r := New(s)
	vals := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		r.MustAppend(Tuple{strconv.Itoa(i), vals[i%3], vals[(i+1)%3]})
	}
	return r
}

func TestSortByNumeric(t *testing.T) {
	r := buildNumbered(t, 20)
	src := stats.NewSource("sort-test")
	r.Shuffle(src)
	if err := r.SortBy("k"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Len(); i++ {
		if r.Key(i) != strconv.Itoa(i) {
			t.Fatalf("row %d has key %s after numeric sort", i, r.Key(i))
		}
	}
	// Numeric order, not lexicographic: "2" < "10".
	r2 := New(r.Schema())
	r2.MustAppend(Tuple{"10", "a", "b"})
	r2.MustAppend(Tuple{"2", "a", "b"})
	if err := r2.SortBy("k"); err != nil {
		t.Fatal(err)
	}
	if r2.Key(0) != "2" {
		t.Fatalf("numeric sort produced %s first", r2.Key(0))
	}
}

func TestSortByString(t *testing.T) {
	s := MustSchema([]Attribute{
		{Name: "k", Type: TypeString},
		{Name: "v", Type: TypeString},
	}, "k")
	r := New(s)
	for _, k := range []string{"pear", "apple", "mango"} {
		r.MustAppend(Tuple{k, "x"})
	}
	if err := r.SortBy("k"); err != nil {
		t.Fatal(err)
	}
	if r.Key(0) != "apple" || r.Key(2) != "pear" {
		t.Fatalf("string sort order wrong: %s..%s", r.Key(0), r.Key(2))
	}
}

func TestSortByUnknown(t *testing.T) {
	r := buildNumbered(t, 3)
	if err := r.SortBy("ghost"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestShufflePreservesContentAndIndex(t *testing.T) {
	r := buildNumbered(t, 50)
	orig := r.Clone()
	r.Shuffle(stats.NewSource("shuffle-ops"))
	if !r.EqualUnordered(orig) {
		t.Fatal("shuffle changed content")
	}
	// Each row index still pairs a key with its own values.
	for i := 0; i < r.Len(); i++ {
		k, _ := strconv.Atoi(r.Key(i))
		if want := orig.Tuple(k); !slices.Equal(r.Tuple(i), want) {
			t.Fatalf("row %d after shuffle = %q, want %q", i, r.Tuple(i), want)
		}
	}
}

func TestSelectRows(t *testing.T) {
	r := buildNumbered(t, 10)
	sub, err := r.SelectRows([]int{3, 1, 7})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 3 || sub.Key(0) != "3" || sub.Key(1) != "1" || sub.Key(2) != "7" {
		t.Fatalf("selected keys %s,%s,%s", sub.Key(0), sub.Key(1), sub.Key(2))
	}
	if _, err := r.SelectRows([]int{99}); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	// Clones: mutating the subset must not touch the original.
	if err := sub.SetValue(0, "v", "MUT"); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Value(3, "v"); v == "MUT" {
		t.Fatal("SelectRows aliased storage")
	}
}

func TestFilter(t *testing.T) {
	r := buildNumbered(t, 12)
	odd := r.Filter(func(i int, tp Tuple) bool {
		n, _ := strconv.Atoi(tp[0])
		return n%2 == 1
	})
	if odd.Len() != 6 {
		t.Fatalf("filtered %d rows, want 6", odd.Len())
	}
	for i := 0; i < odd.Len(); i++ {
		n, _ := strconv.Atoi(odd.Key(i))
		if n%2 != 1 {
			t.Fatalf("even key %d survived filter", n)
		}
	}
}

func TestProjectVerticalPartition(t *testing.T) {
	r := buildNumbered(t, 9)
	p, dropped, err := r.Project("v", "w")
	if err != nil {
		t.Fatal(err)
	}
	// v cycles a,b,c so only 3 distinct projected keys survive.
	if p.Len() != 3 {
		t.Fatalf("projection kept %d rows, want 3", p.Len())
	}
	if dropped != 6 {
		t.Fatalf("dropped %d, want 6", dropped)
	}
	if p.Schema().KeyName() != "v" {
		t.Fatalf("projected key %q", p.Schema().KeyName())
	}
}

func TestProjectKeepsKeyNoDrops(t *testing.T) {
	r := buildNumbered(t, 9)
	p, dropped, err := r.Project("k", "v")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 9 || dropped != 0 {
		t.Fatalf("kept %d dropped %d", p.Len(), dropped)
	}
}

func TestAppendAll(t *testing.T) {
	a := buildNumbered(t, 5)
	b := New(a.Schema())
	b.MustAppend(Tuple{"100", "a", "b"})
	b.MustAppend(Tuple{"3", "a", "b"}) // repeats a's key 3, appended all the same
	if err := a.AppendAll(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 7 || a.Key(5) != "100" || a.Key(6) != "3" {
		t.Fatalf("rows %q, want a's 5 then b's 2", rowsOf(a))
	}
}

func TestAppendAllSchemaMismatch(t *testing.T) {
	a := buildNumbered(t, 2)
	other := New(MustSchema([]Attribute{{Name: "x", Type: TypeInt}}, "x"))
	if err := a.AppendAll(other); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

// Filter, AppendAll and EqualUnordered are test helpers over the
// production row primitives: no production path needs them.

// Filter returns a new relation with copies of the rows for which keep
// returns true. The tuple keep sees is reused across calls: it is valid
// only during the call.
func (r *Relation) Filter(keep func(i int, t Tuple) bool) *Relation {
	out := New(r.schema)
	t := make(Tuple, r.arity)
	for i := 0; i < r.rows; i++ {
		r.tupleInto(t, i)
		if keep(i, t) {
			out.MustAppend(t)
		}
	}
	return out
}

// AppendAll appends copies of every tuple in o.
func (r *Relation) AppendAll(o *Relation) error {
	if !r.schema.Equal(o.schema) {
		return fmt.Errorf("relation: schema mismatch in AppendAll")
	}
	t := make(Tuple, o.arity)
	for i, n := 0, o.rows; i < n; i++ {
		o.tupleInto(t, i)
		if err := r.Append(t); err != nil {
			return err
		}
	}
	return nil
}

// EqualUnordered reports whether two relations hold the same multiset
// of tuples, each as often in one as in the other, regardless of order.
func (r *Relation) EqualUnordered(o *Relation) bool {
	if !r.schema.Equal(o.schema) || r.Len() != o.Len() {
		return false
	}
	sorted := func(x *Relation) []Tuple {
		rows := rowsOf(x)
		slices.SortFunc(rows, slices.Compare)
		return rows
	}
	return slices.EqualFunc(sorted(r), sorted(o), slices.Equal)
}
