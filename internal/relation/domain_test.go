package relation

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewDomainSortsAndDedupes(t *testing.T) {
	d, err := NewDomain([]string{"zeta", "alpha", "zeta", "mid"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 3 {
		t.Fatalf("size %d, want 3", d.Size())
	}
	want := []string{"alpha", "mid", "zeta"}
	if got := d.Values(); !reflect.DeepEqual(got, want) {
		t.Fatalf("values %v, want %v", got, want)
	}
}

func TestNewDomainEmpty(t *testing.T) {
	if _, err := NewDomain(nil); err == nil {
		t.Fatal("empty domain accepted")
	}
}

func TestDomainIndexValueInverse(t *testing.T) {
	d := MustDomain([]string{"c", "a", "b"})
	for i := 0; i < d.Size(); i++ {
		v := d.Value(i)
		j, ok := d.Index(v)
		if !ok || j != i {
			t.Fatalf("Index(Value(%d)) = %d,%v", i, j, ok)
		}
	}
	if _, ok := d.Index("missing"); ok {
		t.Fatal("missing value found")
	}
	if !d.Contains("a") || d.Contains("zz") {
		t.Fatal("Contains wrong")
	}
}

func TestDomainValuePanics(t *testing.T) {
	d := MustDomain([]string{"a"})
	for _, i := range []int{-1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Value(%d): expected panic", i)
				}
			}()
			d.Value(i)
		}()
	}
}

// Property: Index/Value are mutually inverse for arbitrary catalogs.
func TestDomainInverseProperty(t *testing.T) {
	f := func(raw []string) bool {
		if len(raw) == 0 {
			return true
		}
		d, err := NewDomain(raw)
		if err != nil {
			return false
		}
		for i := 0; i < d.Size(); i++ {
			if j, ok := d.Index(d.Value(i)); !ok || j != i {
				return false
			}
		}
		for _, v := range raw {
			if i, ok := d.Index(v); !ok || d.Value(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDomainOf(t *testing.T) {
	s := MustSchema([]Attribute{
		{Name: "k", Type: TypeInt},
		{Name: "city", Type: TypeString, Categorical: true},
	}, "k")
	r := New(s)
	for i, city := range []string{"chicago", "boston", "chicago", "austin"} {
		r.MustAppend(Tuple{itoa(i), city})
	}
	d, err := DomainOf(r, "city")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"austin", "boston", "chicago"}
	if !reflect.DeepEqual(d.Values(), want) {
		t.Fatalf("domain %v, want %v", d.Values(), want)
	}
}

func TestDomainOfErrors(t *testing.T) {
	s := MustSchema([]Attribute{{Name: "k", Type: TypeInt}}, "k")
	r := New(s)
	if _, err := DomainOf(r, "ghost"); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := DomainOf(r, "k"); err == nil {
		t.Error("empty relation accepted")
	}
}

func TestHistogramOf(t *testing.T) {
	s := MustSchema([]Attribute{
		{Name: "k", Type: TypeInt},
		{Name: "c", Type: TypeString, Categorical: true},
	}, "k")
	r := New(s)
	for i, v := range []string{"x", "x", "x", "y"} {
		r.MustAppend(Tuple{itoa(i), v})
	}
	h, err := HistogramOf(r, "c")
	if err != nil {
		t.Fatal(err)
	}
	if h.Count("x") != 3 || h.Count("y") != 1 || histTotal(h) != 4 {
		t.Fatalf("histogram counts wrong: x=%d y=%d total=%d",
			h.Count("x"), h.Count("y"), histTotal(h))
	}
	if _, err := HistogramOf(r, "ghost"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}
