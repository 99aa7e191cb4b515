package relation

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"unicode/utf8"
)

// writeReadTokens are the pieces FuzzWriteRead builds values from: the
// empty string, plain ASCII, multi-byte UTF-8, every character either
// format has to quote or escape (quotes, commas, newlines, leading
// spaces, backslashes, braces, tabs, NUL), and the two a format cannot
// carry exactly: a carriage return (encoding/csv reads a quoted \r\n
// back as \n) and invalid UTF-8 (encoding/json writes it as U+FFFD).
var writeReadTokens = []string{
	"a", "Z9", "é", "日本", "😀", `"`, ",", "\n", " ", "\t", `\`, "{", "}", ":", "\x00", `""`, "\r", "\xff",
}

// unwritable reports whether r holds a value format cannot carry: \r\n
// for CSV, invalid UTF-8 for JSONL.
func unwritable(format string, r *Relation) bool {
	for _, tup := range rowsOf(r) {
		for _, v := range tup {
			if format == "csv" && strings.Contains(v, "\r\n") || format == "jsonl" && !utf8.ValidString(v) {
				return true
			}
		}
	}
	return false
}

// writeReadRelation decodes fuzz bytes into a relation of arity 1–4
// (the first column is the key): each value is up to three tokens, so
// empty values occur often. Rows whose key repeats are dropped.
func writeReadRelation(arity uint8, data []byte) *Relation {
	n := int(arity%4) + 1
	attrs := make([]Attribute, n)
	for i := range attrs {
		attrs[i] = Attribute{Name: fmt.Sprintf("c%d", i), Type: TypeString, Categorical: i > 0}
	}
	r := New(MustSchema(attrs, "c0"))
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for len(data) > 0 {
		t := make(Tuple, n)
		for j := range t {
			var sb strings.Builder
			for k := int(next() % 4); k > 0; k-- {
				sb.WriteString(writeReadTokens[int(next())%len(writeReadTokens)])
			}
			t[j] = sb.String()
		}
		_ = r.Append(t) // a repeated key drops the row
	}
	return r
}

// FuzzWriteRead is the writer → every reader differential: a relation
// written by WriteCSV or WriteJSONL must read back Equal through the
// materializing reader, through the block readers at block sizes 1, 7
// and 512, and through SkimRecords shards each parsed by a block reader
// with the rows concatenated. A writer must refuse exactly the
// relations holding a value its format cannot carry; what it does write
// is well-formed by construction, so an error on any read path is a
// failure.
func FuzzWriteRead(f *testing.F) {
	f.Add(uint8(0), []byte{1, 0, 0, 1, 1, 0}) // one column: "" and "a"
	f.Add(uint8(1), []byte{1, 0, 3, 0, 16, 7, 1, 1, 1, 16, 1, 0, 17})
	f.Add(uint8(1), []byte{2, 3, 7, 1, 5, 2, 2, 6, 1, 0})
	f.Add(uint8(2), []byte{3, 4, 5, 6, 0, 2, 15, 15, 1, 13, 3, 9, 10, 11})
	f.Add(uint8(3), []byte{1, 2, 1, 3, 1, 4, 1, 14, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, arity uint8, data []byte) {
		r := writeReadRelation(arity, data)
		want := make([][]string, r.Len())
		for i, tup := range rowsOf(r) {
			want[i] = tup
		}
		for _, format := range []string{"csv", "jsonl"} {
			var sb strings.Builder
			write, read := WriteCSV, ReadCSV
			if format == "jsonl" {
				write, read = WriteJSONL, ReadJSONL
			}
			err := write(&sb, r)
			if bad := unwritable(format, r); bad || err != nil {
				if !bad || err == nil {
					t.Fatalf("%s: write of %q: error %v, want one only for values the format cannot carry", format, want, err)
				}
				continue
			}
			out := sb.String()
			open := func(in string) RawShardSource {
				if format == "jsonl" {
					return NewJSONLBlockReader(strings.NewReader(in), r.Schema())
				}
				br, err := NewCSVBlockReader(strings.NewReader(in), r.Schema())
				if err != nil {
					t.Fatalf("%s: header of %q: %v", format, in, err)
				}
				return br
			}
			check := func(path string, got [][]string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s %s: %v\nwritten: %q", format, path, err, out)
				}
				if !sameRows(want, got) {
					t.Fatalf("%s %s: read %q\nwant %q\nwritten: %q", format, path, got, want, out)
				}
			}

			back, err := read(strings.NewReader(out), r.Schema())
			if err == nil && !back.Equal(r) {
				t.Fatalf("%s: Read%s returned %q, want %q\nwritten: %q",
					format, strings.ToUpper(format), rowsOf(back), want, out)
			}
			check("Read", want, err)
			for _, bs := range []int{1, 7, 512} {
				got, err := drainBlockRows(t, open(out), bs)
				check(fmt.Sprintf("block reader at %d rows", bs), got, err)
				if format == "jsonl" {
					got, err := drainBlockRows(t, NewJSONLPayloadReader(out, r.Schema()), bs)
					check(fmt.Sprintf("payload reader at %d rows", bs), got, err)
				}
			}
			for _, shardRows := range []int{1, 3} {
				payloads, counts, err := skimShards(open(out), shardRows)
				check(fmt.Sprintf("skim at %d rows", shardRows), want, err)
				var got [][]string
				for i, p := range payloads {
					rows, err := drainBlockRows(t, open(p), 512)
					check(fmt.Sprintf("shard %d of the skim at %d rows", i, shardRows), want, err)
					if len(rows) != counts[i] {
						t.Fatalf("%s: shard %d parses to %d rows, skim counted %d", format, i, len(rows), counts[i])
					}
					got = append(got, rows...)
				}
				check(fmt.Sprintf("skim at %d rows, shards concatenated", shardRows), got, nil)
			}
		}
	})
}

// TestWritersRejectUnrepresentableValues: a value a format cannot carry
// fails the write, naming its row and column, instead of reading back
// changed — CSV turns \r\n into \n, JSON turns invalid UTF-8 into
// U+FFFD. Each writer still takes the value the other one refuses.
func TestWritersRejectUnrepresentableValues(t *testing.T) {
	for _, tc := range []struct {
		value, bad string
	}{
		{"a\r\nb", "csv"},
		{"x\xffy", "jsonl"},
	} {
		r := New(MustSchema([]Attribute{{Name: "k", Type: TypeString}, {Name: "v", Type: TypeString}}, "k"))
		for _, tup := range []Tuple{{"1", "ok"}, {"2", tc.value}} {
			if err := r.Append(tup); err != nil {
				t.Fatal(err)
			}
		}
		for _, format := range []string{"csv", "jsonl"} {
			write := WriteCSV
			if format == "jsonl" {
				write = WriteJSONL
			}
			err := write(io.Discard, r)
			if format != tc.bad {
				if err != nil {
					t.Fatalf("%s write of %q: %v", format, tc.value, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), "row 1") || !strings.Contains(err.Error(), `column "v"`) {
				t.Fatalf("%s write of %q: error %v, want one naming row 1, column \"v\"", format, tc.value, err)
			}
		}
	}
}
