package relation

import (
	"encoding/csv"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// keyedCSV writes keys as the key column of a two-column CSV, quoting
// where needed; row i's value is i.
func keyedCSV(t testing.TB, keys []string) string {
	t.Helper()
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	if err := w.Write([]string{"Visit_Nbr", "Item_Nbr"}); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := w.Write([]string{k, strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// checkDuplicateKeys reads keys through ReadCSV and through ReadAll over
// the stdlib CSV row reader: both accept, and both hold every row in
// order, each repeated key as often as it occurs.
func checkDuplicateKeys(t *testing.T, keys []string) {
	t.Helper()
	in := keyedCSV(t, keys)
	got, err := ReadCSV(strings.NewReader(in), rowioSchema(t))
	if err != nil {
		t.Fatalf("%d keys: ReadCSV: %v", len(keys), err)
	}
	rr, err := NewCSVRowReader(strings.NewReader(in), rowioSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReadAll(rr)
	if err != nil {
		t.Fatalf("%d keys: ReadAll: %v", len(keys), err)
	}
	if !got.Equal(want) || got.Len() != len(keys) {
		t.Fatalf("%d keys: ReadCSV read %d rows, ReadAll %d; rows differ: %v", len(keys), got.Len(), want.Len(), !got.Equal(want))
	}
	for i, k := range keys {
		if got.Key(i) != k || got.At(i, 1) != strconv.Itoa(i) {
			t.Fatalf("row %d = %q, want key %q value %d", i, got.Tuple(i), k, i)
		}
	}
}

// FuzzReadCSVDuplicateKeys splits its input on '|' into a key column
// (carriage returns, which CSV parsing folds, become 'r') and appends
// its first half again, so every input repeats a key, and checks that
// ReadCSV reads every row, in order, as ReadAll does.
func FuzzReadCSVDuplicateKeys(f *testing.F) {
	f.Add("1|2|3|1")
	f.Add("|a||b")
	f.Add("abcdefgh1|abcdefgh2|abcdefgh|abcdefgh1")
	f.Add("x|\"q\"|a,b|line\nbreak|\"q\"")
	f.Add(" lead|lead| lead")
	f.Add("7|7|7|7|7|7|7|7|7")
	f.Fuzz(func(t *testing.T, in string) {
		keys := strings.Split(strings.ReplaceAll(in, "\r", "r"), "|")
		if len(keys) > 4096 {
			keys = keys[:4096]
		}
		keys = append(keys, keys[:(len(keys)+1)/2]...)
		checkDuplicateKeys(t, keys)
	})
}

// TestReadCSVDuplicateKeyCases pins repeated keys across block
// boundaries and in the last row of a large input, empty keys, keys
// that agree in their first 8 bytes, and an input of one key repeated.
func TestReadCSVDuplicateKeyCases(t *testing.T) {
	const big = 1<<17 + 1
	keys := make([]string, big)
	for i := range keys {
		keys[i] = strconv.Itoa(i + 1)
	}
	checkDuplicateKeys(t, keys)
	keys[big-1] = "1"
	checkDuplicateKeys(t, keys)
	for i := range keys {
		keys[i] = strconv.Itoa(i % 1000)
	}
	checkDuplicateKeys(t, keys)

	for _, keys := range [][]string{
		{""},
		{"", "a"},
		{"a", "", "b", ""},
		{"", ""},
		{"abcdefgh1", "abcdefgh2", "abcdefgh", "abcdefgh12"},
		{"abcdefgh1", "abcdefgh2", "abcdefgh", "abcdefgh2"},
		{"abcdefghXYZ", "abcdefghXYz", "abcdefghXYZ"},
		slices.Repeat([]string{"same"}, 3000),
	} {
		checkDuplicateKeys(t, keys)
	}
}
