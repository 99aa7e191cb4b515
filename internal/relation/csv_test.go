package relation

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseSchemaSpec(t *testing.T) {
	s, err := ParseSchemaSpec("Visit_Nbr:int!key, Item_Nbr:int:categorical")
	if err != nil {
		t.Fatal(err)
	}
	if s.Arity() != 2 || s.KeyName() != "Visit_Nbr" {
		t.Fatalf("arity=%d key=%s", s.Arity(), s.KeyName())
	}
	if !s.Attr(1).Categorical || s.Attr(0).Categorical {
		t.Fatal("categorical flags wrong")
	}
	if s.Attr(0).Type != TypeInt {
		t.Fatal("type wrong")
	}
}

func TestParseSchemaSpecDefaultKey(t *testing.T) {
	s, err := ParseSchemaSpec("a:string, b:string:cat")
	if err != nil {
		t.Fatal(err)
	}
	if s.KeyName() != "a" {
		t.Fatalf("default key %q, want first attribute", s.KeyName())
	}
}

func TestParseSchemaSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"a",
		"a:float",
		"a:int:wat",
		"a:int!key, b:int!key",
		"a:int:cat:extra",
	} {
		if _, err := ParseSchemaSpec(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestSchemaSpecRoundTrip(t *testing.T) {
	specs := []string{
		"Visit_Nbr:int!key, Item_Nbr:int:categorical",
		"a:string!key, b:string:categorical, c:int",
		"x:int!key",
	}
	for _, spec := range specs {
		s, err := ParseSchemaSpec(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		s2, err := ParseSchemaSpec(SchemaSpec(s))
		if err != nil {
			t.Fatalf("re-parse %q: %v", SchemaSpec(s), err)
		}
		if !s.Equal(s2) {
			t.Errorf("round trip changed schema: %q -> %q", spec, SchemaSpec(s2))
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := MustSchema([]Attribute{
		{Name: "k", Type: TypeInt},
		{Name: "city", Type: TypeString, Categorical: true},
	}, "k")
	r := New(s)
	r.MustAppend(Tuple{"1", "chicago"})
	r.MustAppend(Tuple{"2", "san jose"}) // embedded space
	r.MustAppend(Tuple{"3", `quoted "city"`})

	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(back) {
		t.Fatal("CSV round trip changed relation")
	}
}

func TestReadCSVColumnReorder(t *testing.T) {
	s := MustSchema([]Attribute{
		{Name: "k", Type: TypeInt},
		{Name: "v", Type: TypeString},
	}, "k")
	in := "v,k\nhello,1\nworld,2\n"
	r, err := ReadCSV(strings.NewReader(in), s)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Value(0, "v"); v != "hello" {
		t.Fatalf("reordered read got v=%q", v)
	}
	if r.Key(1) != "2" {
		t.Fatalf("reordered read got key=%q", r.Key(1))
	}
}

func TestReadCSVErrors(t *testing.T) {
	s := MustSchema([]Attribute{
		{Name: "k", Type: TypeInt},
		{Name: "v", Type: TypeString},
	}, "k")
	cases := map[string]string{
		"unknown column":   "k,zzz\n1,a\n",
		"duplicate column": "k,k\n1,a\n",
		"missing column":   "k\n1\n",
		"bad row arity":    "k,v\n1\n",
		"empty input":      "",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWriteCSVEmptyRelation(t *testing.T) {
	s := MustSchema([]Attribute{{Name: "k", Type: TypeInt}}, "k")
	var buf bytes.Buffer
	if err := WriteCSV(&buf, New(s)); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "k" {
		t.Fatalf("empty relation CSV = %q", got)
	}
}

// TestWriteCSVLoneEmptyField: a one-column row holding "" must survive a
// WriteCSV → ReadCSV round trip. encoding/csv writes such a record as a
// blank line, which ReadCSV skips, so the writer quotes it.
func TestWriteCSVLoneEmptyField(t *testing.T) {
	r := New(MustSchema([]Attribute{{Name: "k", Type: TypeString}}, "k"))
	for _, v := range []string{"", "a"} {
		r.MustAppend(Tuple{v})
	}
	var buf strings.Builder
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "k\n\"\"\na\n"; got != want {
		t.Fatalf("WriteCSV wrote %q, want %q", got, want)
	}
	back, err := ReadCSV(strings.NewReader(buf.String()), r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(r) {
		t.Fatalf("round trip read %d rows, want %d", back.Len(), r.Len())
	}
}
