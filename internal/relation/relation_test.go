package relation

import (
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// itemScanSchema mirrors the paper's Wal-Mart test relation:
// Visit_Nbr INTEGER PRIMARY KEY, Item_Nbr INTEGER (categorical).
func itemScanSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Attribute{
		{Name: "Visit_Nbr", Type: TypeInt},
		{Name: "Item_Nbr", Type: TypeInt, Categorical: true},
	}, "Visit_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func threeAttrSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Attribute{
		{Name: "ticket", Type: TypeInt},
		{Name: "city", Type: TypeString, Categorical: true},
		{Name: "airline", Type: TypeString, Categorical: true},
	}, "ticket")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	cases := []struct {
		name  string
		attrs []Attribute
		key   string
	}{
		{"empty", nil, "k"},
		{"missing key", []Attribute{{Name: "a"}}, "b"},
		{"duplicate attr", []Attribute{{Name: "a"}, {Name: "a"}}, "a"},
		{"empty name", []Attribute{{Name: ""}}, ""},
	}
	for _, c := range cases {
		if _, err := NewSchema(c.attrs, c.key); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := threeAttrSchema(t)
	if s.Arity() != 3 {
		t.Fatalf("arity %d", s.Arity())
	}
	if s.KeyName() != "ticket" || s.KeyIndex() != 0 {
		t.Fatalf("key %q at %d", s.KeyName(), s.KeyIndex())
	}
	i, ok := s.Index("airline")
	if !ok || i != 2 {
		t.Fatalf("Index(airline) = %d,%v", i, ok)
	}
	if _, ok := s.Index("nope"); ok {
		t.Fatal("unknown attribute found")
	}
	cats := s.CategoricalAttrs()
	if len(cats) != 2 || cats[0] != "city" || cats[1] != "airline" {
		t.Fatalf("categorical attrs %v", cats)
	}
}

func TestSchemaProjectKeepsKey(t *testing.T) {
	s := threeAttrSchema(t)
	p, err := s.Project("ticket", "city")
	if err != nil {
		t.Fatal(err)
	}
	if p.KeyName() != "ticket" {
		t.Fatalf("projected key %q, want ticket", p.KeyName())
	}
}

func TestSchemaProjectPromotesFirstAttr(t *testing.T) {
	s := threeAttrSchema(t)
	p, err := s.Project("city", "airline")
	if err != nil {
		t.Fatal(err)
	}
	if p.KeyName() != "city" {
		t.Fatalf("projected key %q, want city (first kept)", p.KeyName())
	}
}

func TestSchemaProjectErrors(t *testing.T) {
	s := threeAttrSchema(t)
	if _, err := s.Project(); err == nil {
		t.Error("empty projection should fail")
	}
	if _, err := s.Project("ghost"); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestAppendAndLookup(t *testing.T) {
	r := New(itemScanSchema(t))
	for i := 0; i < 10; i++ {
		if err := r.Append(Tuple{strconv.Itoa(i), strconv.Itoa(100 + i%3)}); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 10 {
		t.Fatalf("len %d", r.Len())
	}
	if r.Key(7) != "7" {
		t.Fatalf("Key(7) = %q", r.Key(7))
	}
	v, err := r.Value(7, "Item_Nbr")
	if err != nil || v != "101" {
		t.Fatalf("Value = %q, %v", v, err)
	}
}

func TestAppendArityMismatch(t *testing.T) {
	r := New(itemScanSchema(t))
	if err := r.Append(Tuple{"1"}); err == nil {
		t.Fatal("short tuple accepted")
	}
	if err := r.Append(Tuple{"1", "2", "3"}); err == nil {
		t.Fatal("long tuple accepted")
	}
}

// TestAppendDuplicateKey: a relation is a multiset of rows, so a key an
// earlier row holds, or a whole repeated row, is appended like any other.
func TestAppendDuplicateKey(t *testing.T) {
	r := New(itemScanSchema(t))
	for _, tup := range []Tuple{{"1", "100"}, {"1", "200"}, {"1", "100"}} {
		if err := r.Append(tup); err != nil {
			t.Fatalf("Append(%q): %v", tup, err)
		}
	}
	if r.Len() != 3 || r.At(1, 1) != "200" || !slices.Equal(r.Tuple(2), Tuple{"1", "100"}) {
		t.Fatalf("rows %q", rowsOf(r))
	}
}

func TestSetValue(t *testing.T) {
	r := New(itemScanSchema(t))
	r.MustAppend(Tuple{"1", "100"})
	if err := r.SetValue(0, "Item_Nbr", "999"); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Value(0, "Item_Nbr"); v != "999" {
		t.Fatalf("value after set = %q", v)
	}
	if err := r.SetValue(0, "ghost", "x"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

// TestSetValueKeyMaintainsIndex: a key-column write is an ordinary
// column write; a key another row holds is accepted, and every row
// index keeps its own values.
func TestSetValueKeyMaintainsIndex(t *testing.T) {
	r := New(itemScanSchema(t))
	r.MustAppend(Tuple{"1", "100"})
	r.MustAppend(Tuple{"2", "200"})
	for _, k := range []string{"2", "42", "42"} {
		if err := r.SetValue(0, "Visit_Nbr", k); err != nil {
			t.Fatalf("SetValue(0, key, %q): %v", k, err)
		}
	}
	if err := r.SetValue(1, "Visit_Nbr", "2"); err != nil {
		t.Fatalf("self-assignment rejected: %v", err)
	}
	if !slices.EqualFunc(rowsOf(r), []Tuple{{"42", "100"}, {"2", "200"}}, slices.Equal) {
		t.Fatalf("rows %q", rowsOf(r))
	}
}

func TestCloneIndependence(t *testing.T) {
	r := New(itemScanSchema(t))
	r.MustAppend(Tuple{"1", "100"})
	c := r.Clone()
	if err := c.SetValue(0, "Item_Nbr", "777"); err != nil {
		t.Fatal(err)
	}
	c.MustAppend(Tuple{"2", "200"})
	if v, _ := r.Value(0, "Item_Nbr"); v != "100" {
		t.Fatal("clone mutation leaked into original")
	}
	if r.Len() != 1 || c.Len() != 2 {
		t.Fatal("clone append leaked")
	}
}

// TestCloneConcurrentNewLabels: an original and its clone share their
// arenas and label tables; each writes, from its own goroutine, labels
// the other has never held, and each reads back only its own.
func TestCloneConcurrentNewLabels(t *testing.T) {
	r := buildNumbered(t, 3000)
	c := r.Clone()
	write := func(x *Relation, label string, wg *sync.WaitGroup) {
		defer wg.Done()
		for i := 0; i < x.Len(); i += 3 {
			if err := x.SetValue(i, "v", label); err != nil {
				t.Error(err)
				return
			}
		}
		if err := x.Append(Tuple{"new", label, label + "-w"}); err != nil {
			t.Error(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go write(r, "orig", &wg)
	go write(c, "clone", &wg)
	wg.Wait()
	for _, side := range []struct {
		x     *Relation
		label string
	}{{r, "orig"}, {c, "clone"}} {
		x, l := side.x, side.label
		for i := 0; i < 3000; i++ {
			want := Tuple{strconv.Itoa(i), []string{l, "b", "c"}[i%3], []string{"b", "c", "a"}[i%3]}
			if !slices.Equal(x.Tuple(i), want) {
				t.Fatalf("%s: row %d = %q, want %q", l, i, x.Tuple(i), want)
			}
		}
		if got := x.Tuple(3000); x.Len() != 3001 || !slices.Equal(got, Tuple{"new", l, l + "-w"}) {
			t.Fatalf("%s: %d rows, last %q", l, x.Len(), got)
		}
		hv, _ := HistogramOf(x, "v")
		hw, _ := HistogramOf(x, "w")
		wantV := map[string]int{l: 1001, "b": 1000, "c": 1000}
		wantW := map[string]int{"a": 1000, "b": 1000, "c": 1000, l + "-w": 1}
		if !reflect.DeepEqual(histCounts(hv), wantV) || !reflect.DeepEqual(histCounts(hw), wantW) {
			t.Fatalf("%s: histograms v %v, w %v", l, histCounts(hv), histCounts(hw))
		}
	}
}

func TestEqualOrderSensitive(t *testing.T) {
	s := itemScanSchema(t)
	a, b := New(s), New(s)
	a.MustAppend(Tuple{"1", "x"})
	a.MustAppend(Tuple{"2", "y"})
	b.MustAppend(Tuple{"2", "y"})
	b.MustAppend(Tuple{"1", "x"})
	if a.Equal(b) {
		t.Fatal("Equal should be order-sensitive")
	}
	if !a.EqualUnordered(b) {
		t.Fatal("EqualUnordered should match reordered relations")
	}
}

func TestEqualUnorderedDetectsValueChange(t *testing.T) {
	s := itemScanSchema(t)
	a, b := New(s), New(s)
	a.MustAppend(Tuple{"1", "x"})
	b.MustAppend(Tuple{"1", "CHANGED"})
	if a.EqualUnordered(b) {
		t.Fatal("value change not detected")
	}
}

func TestEqualUnorderedDetectsMissingKey(t *testing.T) {
	s := itemScanSchema(t)
	a, b := New(s), New(s)
	a.MustAppend(Tuple{"1", "x"})
	b.MustAppend(Tuple{"2", "x"})
	if a.EqualUnordered(b) {
		t.Fatal("key mismatch not detected")
	}
}

func TestTypeParseRoundTrip(t *testing.T) {
	for _, typ := range []Type{TypeString, TypeInt} {
		got, err := ParseType(typ.String())
		if err != nil || got != typ {
			t.Errorf("round trip %v: got %v, %v", typ, got, err)
		}
	}
	if _, err := ParseType("float"); err == nil {
		t.Error("unknown type accepted")
	}
}

// Tuple.Clone and Column.Rows are test accessors: production paths
// read values through At, tupleInto and the block columns.

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Rows returns the number of values in the column.
func (c *Column) Rows() int { return len(c.offs) - 1 }
