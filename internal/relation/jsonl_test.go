package relation

import (
	"bytes"
	"strings"
	"testing"
)

func TestJSONLRoundTrip(t *testing.T) {
	s := MustSchema([]Attribute{
		{Name: "k", Type: TypeInt},
		{Name: "city", Type: TypeString, Categorical: true},
	}, "k")
	r := New(s)
	r.MustAppend(Tuple{"1", "München"})
	r.MustAppend(Tuple{"2", `with "quotes" and, commas`})
	r.MustAppend(Tuple{"3", "newline\\nescape"})

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(back) {
		t.Fatal("JSONL round trip changed the relation")
	}
}

func TestJSONLOneObjectPerLine(t *testing.T) {
	s := MustSchema([]Attribute{{Name: "k", Type: TypeInt}}, "k")
	r := New(s)
	r.MustAppend(Tuple{"1"})
	r.MustAppend(Tuple{"2"})
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
}

func TestReadJSONLErrors(t *testing.T) {
	s := MustSchema([]Attribute{
		{Name: "k", Type: TypeInt},
		{Name: "v", Type: TypeString},
	}, "k")
	cases := map[string]string{
		"missing key":  `{"k":"1"}`,
		"extra key":    `{"k":"1","v":"a","z":"b"}`,
		"unknown key":  `{"k":"1","zzz":"a"}`,
		"corrupt json": `{"k":`,
		"non-string":   `{"k":1,"v":"a"}`,
	}
	for name, in := range cases {
		if _, err := ReadJSONL(strings.NewReader(in), s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadJSONLEmpty(t *testing.T) {
	s := MustSchema([]Attribute{{Name: "k", Type: TypeInt}}, "k")
	r, err := ReadJSONL(strings.NewReader(""), s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("empty input produced %d rows", r.Len())
	}
}
