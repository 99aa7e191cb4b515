package relation

import (
	"encoding/csv"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

// firstDuplicateOracle is the map-based duplicate check ReadCSV ran
// before the pointer-free table: the first row whose key an earlier row
// already holds.
func firstDuplicateOracle(keys []string) (int, bool) {
	seen := make(map[string]bool, len(keys))
	for i, k := range keys {
		if seen[k] {
			return i, true
		}
		seen[k] = true
	}
	return 0, false
}

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

// checkDuplicateKeys reads keys through ReadCSV and holds the outcome to
// the map oracle: the same accept/reject, the same reported row and key,
// and on acceptance the rows in order with a working key index.
func checkDuplicateKeys(t *testing.T, keys []string) {
	t.Helper()
	r, err := ReadCSV(strings.NewReader(keyedCSV(t, keys)), rowioSchema(t))
	if i, dup := firstDuplicateOracle(keys); dup {
		want := fmt.Sprintf("row %d: %v: %q", i+1, ErrDuplicateKey, keys[i])
		if !errors.Is(err, ErrDuplicateKey) || err.Error() != want {
			t.Fatalf("%d keys: got %v, want %s", len(keys), err, want)
		}
		return
	}
	if err != nil {
		t.Fatalf("%d unique keys rejected: %v", len(keys), err)
	}
	if r.Len() != len(keys) {
		t.Fatalf("%d rows, want %d", r.Len(), len(keys))
	}
	for i, k := range keys {
		if r.Key(i) != k {
			t.Fatalf("row %d key %q, want %q", i, r.Key(i), k)
		}
		if j, ok := r.Lookup(k); !ok || j != i {
			t.Fatalf("Lookup(%q) = %d,%v, want %d", k, j, ok, i)
		}
	}
}

// FuzzReadCSVDuplicateKeys splits its input on '|' into a key column
// (carriage returns, which CSV parsing folds, become 'r') and checks
// ReadCSV's duplicate-key verdict against the map oracle.
func FuzzReadCSVDuplicateKeys(f *testing.F) {
	f.Add("1|2|3|1")
	f.Add("|a||b")
	f.Add("abcdefgh1|abcdefgh2|abcdefgh|abcdefgh1")
	f.Add("x|\"q\"|a,b|line\nbreak|\"q\"")
	f.Add(" lead|lead| lead")
	f.Fuzz(func(t *testing.T, in string) {
		keys := strings.Split(strings.ReplaceAll(in, "\r", "r"), "|")
		if len(keys) > 4096 {
			keys = keys[:4096]
		}
		checkDuplicateKeys(t, keys)
	})
}

// TestReadCSVDuplicateKeyCases pins the cases a hash table can get
// wrong: a table large enough that probe runs wrap past its end with
// the duplicate in the last row, empty keys, and keys that agree in
// their first 8 bytes.
func TestReadCSVDuplicateKeyCases(t *testing.T) {
	const big = 1<<17 + 1
	numbered := func(n int) []string {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = strconv.Itoa(i + 1)
		}
		return keys
	}
	keys := numbered(big)
	checkDuplicateKeys(t, keys)
	keys[big-1] = "1"
	checkDuplicateKeys(t, keys)
	keys[big-1] = strconv.Itoa(big - 1)
	checkDuplicateKeys(t, keys)

	for _, keys := range [][]string{
		{""},
		{"", "a"},
		{"a", "", "b", ""},
		{"", ""},
		{"abcdefgh1", "abcdefgh2", "abcdefgh", "abcdefgh12"},
		{"abcdefgh1", "abcdefgh2", "abcdefgh", "abcdefgh2"},
		{"abcdefghXYZ", "abcdefghXYz", "abcdefghXYZ"},
	} {
		checkDuplicateKeys(t, keys)
	}
}

// fnv is a small string hash for building colliding test hashes.
func fnv(k string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * 1099511628211
	}
	return h
}

// collidingHashes stand in for the key hash to force collisions: every
// tag's low 16 bits are set, so each key's probe starts in the table's
// last slot (or, for "two homes", one of the last two) whatever its
// size, and every probe run wraps past the table's end. With one shared
// tag every probe compares strings; with own tags almost none does.
var collidingHashes = map[string]func(string) uint64{
	"same slot, same tag": func(string) uint64 { return 0xffffffff << 32 },
	"same slot, own tag":  func(k string) uint64 { return (fnv(k)<<16 | 0xffff) << 32 },
	"two homes, own tag":  func(k string) uint64 { return (fnv(k)<<16 | 0xfffe | fnv(k)>>40&1) << 32 },
}

// TestFirstDuplicateKeyCollidingHashes drives the key table with hashes
// that collide on purpose (collidingHashes) through appendHashed, the
// insertion Append, ReadCSV and ReadJSONL share, against the oracle: the
// first duplicate is rejected and every earlier row stays reachable.
func TestFirstDuplicateKeyCollidingHashes(t *testing.T) {
	for name, hash := range collidingHashes {
		for _, n := range []int{1, 2, 3, 100, 1000} {
			for _, dupAt := range []int{-1, 1, n / 2, n - 1} {
				keys := make([]string, n)
				for i := range keys {
					keys[i] = "k" + strconv.Itoa(i)
					if i == dupAt && i > 0 {
						keys[i] = keys[i/3]
					}
				}
				r := New(rowioSchema(t))
				gotRow, gotDup := 0, false
				for i, k := range keys {
					if err := r.appendHashed(Tuple{k, "v"}, hash(k)); err != nil {
						if !errors.Is(err, ErrDuplicateKey) {
							t.Fatal(err)
						}
						gotRow, gotDup = i, true
						break
					}
				}
				wantRow, wantDup := firstDuplicateOracle(keys)
				if gotRow != wantRow || gotDup != wantDup {
					t.Fatalf("%s, n=%d dupAt=%d: got %d,%v, want %d,%v", name, n, dupAt, gotRow, gotDup, wantRow, wantDup)
				}
				checkKeyTable(t, r, hash)
			}
		}
	}
}

// checkKeyTable requires every row's key to be found at its row under
// hash, and every entry to be reachable: no empty slot between its home
// slot and where it sits.
func checkKeyTable(t *testing.T, r *Relation, hash func(string) uint64) {
	t.Helper()
	for i := 0; i < r.Len(); i++ {
		slot, ok := r.findKey(hash(r.Key(i)), r.Key(i))
		if !ok || int(r.keys[slot]&rowMask)-1 != i {
			t.Fatalf("row %d key %q: found %v at slot %d", i, r.Key(i), ok, slot)
		}
	}
	mask := uint64(len(r.keys) - 1)
	entries := 0
	for slot, e := range r.keys {
		if e == 0 {
			continue
		}
		entries++
		for s := e >> 32 & mask; s != uint64(slot); s = (s + 1) & mask {
			if r.keys[s] == 0 {
				t.Fatalf("entry at slot %d unreachable: slot %d on its probe run is empty", slot, s)
			}
		}
	}
	if entries != r.Len() || r.Len()*3 > len(r.keys)*2 {
		t.Fatalf("%d entries for %d rows in %d slots", entries, r.Len(), len(r.keys))
	}
}

// TestSetKeyCollidingTags rewrites keys under collidingHashes, so every
// delete shifts entries back along probe runs that wrap past the
// table's end: renames to fresh keys, to taken keys (rejected, nothing
// changed) and back to freed ones, checked against a map oracle.
func TestSetKeyCollidingTags(t *testing.T) {
	for name, hash := range collidingHashes {
		for _, n := range []int{2, 5, 40, 300} {
			r := New(rowioSchema(t))
			oracle := make(map[string]int)
			for i := 0; i < n; i++ {
				k := "k" + strconv.Itoa(i)
				if err := r.appendHashed(Tuple{k, "v"}, hash(k)); err != nil {
					t.Fatal(err)
				}
				oracle[k] = i
			}
			src := stats.NewSource(name + strconv.Itoa(n))
			for step := 0; step < 4*n; step++ {
				i := src.Intn(n)
				value := "n" + strconv.Itoa(src.Intn(2*n))
				if src.Intn(3) == 0 {
					value = "k" + strconv.Itoa(src.Intn(n))
				}
				old := r.Key(i)
				if old == value {
					continue
				}
				err := r.setKey(i, value, hash(value), hash(old))
				if _, taken := oracle[value]; taken {
					if !errors.Is(err, ErrDuplicateKey) || r.Key(i) != old {
						t.Fatalf("%s n=%d: rename row %d to taken %q: %v, key now %q", name, n, i, value, err, r.Key(i))
					}
				} else {
					if err != nil {
						t.Fatalf("%s n=%d: rename row %d to %q: %v", name, n, i, value, err)
					}
					delete(oracle, old)
					oracle[value] = i
					if _, ok := r.findKey(hash(old), old); ok {
						t.Fatalf("%s n=%d: replaced key %q still found", name, n, old)
					}
				}
				checkKeyTable(t, r, hash)
			}
			for k, i := range oracle {
				if r.Key(i) != k {
					t.Fatalf("%s n=%d: row %d key %q, oracle %q", name, n, i, r.Key(i), k)
				}
			}
		}
	}
}

// TestReadCSVKeyIndex: ReadCSV leaves the key table built, within its
// load limit, and Lookup, Append and key-column SetValue behave as on a
// relation built by Append.
func TestReadCSVKeyIndex(t *testing.T) {
	in := manyRows("csv", 1200, 0)
	read := func() *Relation {
		r, err := ReadCSV(strings.NewReader(in), rowioSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		checkKeyTable(t, r, keyHash)
		return r
	}
	r := read()
	if i, ok := r.Lookup("700"); !ok || i != 699 {
		t.Fatalf("Lookup(700) = %d,%v", i, ok)
	}
	if _, ok := r.Lookup("1201"); ok {
		t.Fatal("Lookup of an absent key succeeded")
	}

	r = read()
	if err := r.Append(Tuple{"5", "99"}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("Append of a duplicate key: %v", err)
	}
	if err := r.Append(Tuple{"1201", "99"}); err != nil {
		t.Fatal(err)
	}
	if i, ok := r.Lookup("1201"); !ok || i != 1200 {
		t.Fatalf("Lookup(1201) after Append = %d,%v", i, ok)
	}

	r = read()
	if err := r.SetValue(0, "Visit_Nbr", "2"); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("SetValue to a taken key: %v", err)
	}
	if err := r.SetValue(0, "Visit_Nbr", "x1"); err != nil {
		t.Fatal(err)
	}
	if i, ok := r.Lookup("x1"); !ok || i != 0 {
		t.Fatalf("Lookup(x1) after SetValue = %d,%v", i, ok)
	}
	if _, ok := r.Lookup("1"); ok {
		t.Fatal("the replaced key still resolves")
	}
	if err := r.SetValue(1, "Visit_Nbr", "1"); err != nil {
		t.Fatalf("SetValue to the freed key: %v", err)
	}
}
