package relation

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

func rowioSchema(t testing.TB) *Schema {
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

func rowioRelation(t testing.TB) *Relation {
	t.Helper()
	r := New(rowioSchema(t))
	for _, row := range [][2]string{{"1", "10"}, {"2", "11"}, {"3", "10"}} {
		if err := r.Append(Tuple{row[0], row[1]}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestCSVRowRoundTrip streams a relation out one tuple at a time through
// a plain csv.Writer and reads it back with the row reader.
func TestCSVRowRoundTrip(t *testing.T) {
	r := rowioRelation(t)
	var b strings.Builder
	cw := csv.NewWriter(&b)
	if err := cw.Write([]string{"Visit_Nbr", "Item_Nbr"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Len(); i++ {
		if err := cw.Write(r.Tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}

	rr, err := NewCSVRowReader(strings.NewReader(b.String()), r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(rr)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(got) {
		t.Fatalf("round trip lost data:\nin:  %v\nout: %v", r, got)
	}
}

// TestJSONLRowRoundTrip writes one JSON object per tuple and reads the
// lines back with the row reader.
func TestJSONLRowRoundTrip(t *testing.T) {
	r := rowioRelation(t)
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for i := 0; i < r.Len(); i++ {
		tup := r.Tuple(i)
		if err := enc.Encode(map[string]string{"Visit_Nbr": tup[0], "Item_Nbr": tup[1]}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadAll(NewJSONLRowReader(strings.NewReader(b.String()), r.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(got) {
		t.Fatalf("round trip lost data:\nin:  %v\nout: %v", r, got)
	}
}

func TestCSVRowReaderMalformed(t *testing.T) {
	schema := rowioSchema(t)
	headerErrs := map[string]string{
		"":                           "empty input",
		"Visit_Nbr,Unknown\n1,2\n":   "unknown column",
		"Visit_Nbr,Visit_Nbr\n1,2\n": "duplicate column",
		"Visit_Nbr\n1\n":             "missing column",
	}
	for in, why := range headerErrs {
		if _, err := NewCSVRowReader(strings.NewReader(in), schema); err == nil {
			t.Errorf("%s: header accepted: %q", why, in)
		}
	}

	rowErrs := map[string]string{
		"Visit_Nbr,Item_Nbr\n1\n":        "short row",
		"Visit_Nbr,Item_Nbr\n1,2,3\n":    "long row",
		"Visit_Nbr,Item_Nbr\n\"1,2\n":    "unterminated quote",
		"Visit_Nbr,Item_Nbr\n1,\"a\"b\n": "stray quote",
	}
	for in, why := range rowErrs {
		rr, err := NewCSVRowReader(strings.NewReader(in), schema)
		if err != nil {
			t.Errorf("%s: header rejected: %v", why, err)
			continue
		}
		if _, err := rr.Read(); err == nil || err == io.EOF {
			t.Errorf("%s: row accepted: %q", why, in)
		}
	}
}

func TestJSONLRowReaderMalformed(t *testing.T) {
	schema := rowioSchema(t)
	cases := map[string]string{
		"{\"Visit_Nbr\":\"1\"}\n":                                    "missing key",
		"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"2\",\"Extra\":\"3\"}\n": "extra key",
		"{\"Visit_Nbr\":\"1\",\"Wrong\":\"2\"}\n":                    "unknown key",
		"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":2}\n":                     "non-string value",
		"not json\n":                                                 "not json",
		"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"2\"":                    "truncated object",
		"[\"Visit_Nbr\",\"Item_Nbr\"]\n":                             "array not object",
	}
	for in, why := range cases {
		rr := NewJSONLRowReader(strings.NewReader(in), schema)
		if _, err := rr.Read(); err == nil || err == io.EOF {
			t.Errorf("%s: accepted: %q", why, in)
		}
	}
}

func TestReadAllEnforcesKeyUniqueness(t *testing.T) {
	schema := rowioSchema(t)
	in := "Visit_Nbr,Item_Nbr\n1,10\n1,11\n"
	rr, err := NewCSVRowReader(strings.NewReader(in), schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(rr); err == nil {
		t.Fatal("duplicate primary key accepted by ReadAll")
	}
}

// TestRowsReaderYieldsClones: a block read from Rows(r) holds copies of
// the relation's values, so a later rewrite of the relation leaves it
// untouched.
func TestRowsReaderYieldsClones(t *testing.T) {
	r := rowioRelation(t)
	blk := NewBlock(r.Schema())
	if _, err := Rows(r).ReadBlock(blk, 1); err != nil {
		t.Fatal(err)
	}
	want := blk.Col(1).String(0)
	if err := r.SetValue(0, "Item_Nbr", "mutated"); err != nil {
		t.Fatal(err)
	}
	if got := blk.Col(1).String(0); got != want {
		t.Fatalf("Rows block aliases relation storage: %q became %q", want, got)
	}
}

// FuzzCSVRowReader asserts the CSV row path never panics and only ever
// returns rows of schema arity, whatever bytes arrive.
func FuzzCSVRowReader(f *testing.F) {
	f.Add("Visit_Nbr,Item_Nbr\n1,10\n2,11\n")
	f.Add("Item_Nbr,Visit_Nbr\n10,1\n")
	f.Add("Visit_Nbr,Item_Nbr\n\"quoted,comma\",2\n")
	f.Add("Visit_Nbr,Item_Nbr\r\n1,\r\n")
	f.Add("\xff\xfe")
	f.Fuzz(func(t *testing.T, in string) {
		schema := rowioSchema(t)
		rr, err := NewCSVRowReader(strings.NewReader(in), schema)
		if err != nil {
			return
		}
		for i := 0; i < 1000; i++ {
			tup, err := rr.Read()
			if err != nil {
				return
			}
			if len(tup) != schema.Arity() {
				t.Fatalf("row arity %d, schema %d", len(tup), schema.Arity())
			}
		}
	})
}

// FuzzJSONLRowReader is the JSONL counterpart.
func FuzzJSONLRowReader(f *testing.F) {
	f.Add("{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"10\"}\n")
	f.Add("{}")
	f.Add("null\n")
	f.Add("{\"Visit_Nbr\":\"\\u0000\",\"Item_Nbr\":\"x\"}")
	f.Add("\x00{")
	f.Fuzz(func(t *testing.T, in string) {
		schema := rowioSchema(t)
		rr := NewJSONLRowReader(strings.NewReader(in), schema)
		for i := 0; i < 1000; i++ {
			tup, err := rr.Read()
			if err != nil {
				return
			}
			if len(tup) != schema.Arity() {
				t.Fatalf("row arity %d, schema %d", len(tup), schema.Arity())
			}
		}
	})
}
