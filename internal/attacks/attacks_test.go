package attacks

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/stats"
)

func attackData(t *testing.T, n int) (*relation.Relation, *relation.Domain) {
	t.Helper()
	r, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: n, CatalogSize: 100, ZipfS: 1.0, Seed: "attack-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, dom
}

func TestHorizontalSubsetSize(t *testing.T) {
	r, _ := attackData(t, 5000)
	src := stats.NewSource("a1")
	for _, keep := range []float64{0.9, 0.5, 0.1} {
		sub, err := HorizontalSubset(r, keep, src)
		if err != nil {
			t.Fatal(err)
		}
		want := int(5000 * keep)
		if sub.Len() != want {
			t.Fatalf("keep=%v: %d tuples, want %d", keep, sub.Len(), want)
		}
	}
}

func TestHorizontalSubsetPreservesOrderAndContent(t *testing.T) {
	r, _ := attackData(t, 2000)
	sub, err := HorizontalSubset(r, 0.5, stats.NewSource("a1-order"))
	if err != nil {
		t.Fatal(err)
	}
	// Every surviving tuple matches its original by key, and survivors
	// appear in original relative order.
	lastIdx := -1
	rowOf := keyRows(r)
	for i := 0; i < sub.Len(); i++ {
		origIdx, ok := rowOf[sub.Key(i)]
		if !ok {
			t.Fatalf("subset invented key %s", sub.Key(i))
		}
		if origIdx <= lastIdx {
			t.Fatal("subset reordered tuples")
		}
		lastIdx = origIdx
		v1, _ := sub.Value(i, "Item_Nbr")
		v2, _ := r.Value(origIdx, "Item_Nbr")
		if v1 != v2 {
			t.Fatal("subset altered a value")
		}
	}
}

func TestHorizontalSubsetInputUntouched(t *testing.T) {
	r, _ := attackData(t, 1000)
	orig := r.Clone()
	if _, err := HorizontalSubset(r, 0.3, stats.NewSource("x")); err != nil {
		t.Fatal(err)
	}
	if !r.Equal(orig) {
		t.Fatal("attack mutated its input")
	}
}

func TestHorizontalSubsetErrors(t *testing.T) {
	r, _ := attackData(t, 100)
	src := stats.NewSource("e")
	for _, keep := range []float64{0, -0.5, 1.5} {
		if _, err := HorizontalSubset(r, keep, src); err == nil {
			t.Errorf("keep=%v accepted", keep)
		}
	}
	empty := relation.New(r.Schema())
	if _, err := HorizontalSubset(empty, 0.5, src); err == nil {
		t.Error("empty relation accepted")
	}
}

func TestHorizontalSubsetMinimumOne(t *testing.T) {
	r, _ := attackData(t, 10)
	sub, err := HorizontalSubset(r, 0.01, stats.NewSource("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 1 {
		t.Fatalf("kept %d, want 1", sub.Len())
	}
}

func TestSubsetAddition(t *testing.T) {
	r, dom := attackData(t, 4000)
	out, err := SubsetAddition(r, 0.25, stats.NewSource("a2"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 5000 {
		t.Fatalf("size %d, want 5000", out.Len())
	}
	// Original tuples intact.
	outRow := keyRows(out)
	for i := 0; i < r.Len(); i++ {
		j, ok := outRow[r.Key(i)]
		if !ok {
			t.Fatalf("original key %s lost", r.Key(i))
		}
		v1, _ := r.Value(i, "Item_Nbr")
		v2, _ := out.Value(j, "Item_Nbr")
		if v1 != v2 {
			t.Fatal("addition altered an original tuple")
		}
	}
	// Added values come from the existing domain (distribution-conforming).
	for i := r.Len(); i < out.Len(); i++ {
		v, _ := out.Value(i, "Item_Nbr")
		if !dom.Contains(v) {
			t.Fatalf("added value %q outside domain", v)
		}
	}
}

func TestSubsetAdditionZero(t *testing.T) {
	r, _ := attackData(t, 500)
	out, err := SubsetAddition(r, 0, stats.NewSource("z"))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(r) {
		t.Fatal("zero addition changed the relation")
	}
}

func TestSubsetAdditionMatchesDistribution(t *testing.T) {
	r, _ := attackData(t, 20000)
	out, err := SubsetAddition(r, 1.0, stats.NewSource("dist")) // double the data
	if err != nil {
		t.Fatal(err)
	}
	hOrig, _ := relation.HistogramOf(r, "Item_Nbr")
	hOut, _ := relation.HistogramOf(out, "Item_Nbr")
	if d := hOrig.L1Distance(hOut); d > 0.05 {
		t.Fatalf("added data drifted distribution by L1=%v", d)
	}
}

func TestSubsetAlteration(t *testing.T) {
	r, dom := attackData(t, 4000)
	out, err := SubsetAlteration(r, "Item_Nbr", 0.3, dom, stats.NewSource("a3"))
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := 0; i < r.Len(); i++ {
		v1, _ := r.Value(i, "Item_Nbr")
		v2, _ := out.Value(i, "Item_Nbr")
		if v1 != v2 {
			changed++
			if !dom.Contains(v2) {
				t.Fatalf("altered value %q outside domain", v2)
			}
		}
	}
	if changed != 1200 {
		t.Fatalf("altered %d tuples, want exactly 1200", changed)
	}
}

func TestSubsetAlterationAlwaysChangesValue(t *testing.T) {
	// frac=1: every tuple must have a *different* value afterwards.
	r, dom := attackData(t, 1000)
	out, err := SubsetAlteration(r, "Item_Nbr", 1.0, dom, stats.NewSource("all"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Len(); i++ {
		v1, _ := r.Value(i, "Item_Nbr")
		v2, _ := out.Value(i, "Item_Nbr")
		if v1 == v2 {
			t.Fatalf("row %d kept its value under frac=1", i)
		}
	}
}

func TestSubsetAlterationErrors(t *testing.T) {
	r, dom := attackData(t, 100)
	src := stats.NewSource("e3")
	if _, err := SubsetAlteration(r, "ghost", 0.1, dom, src); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := SubsetAlteration(r, "Item_Nbr", -0.1, dom, src); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := SubsetAlteration(r, "Item_Nbr", 1.1, dom, src); err == nil {
		t.Error("fraction > 1 accepted")
	}
	tiny := relation.MustDomain([]string{"one"})
	if _, err := SubsetAlteration(r, "Item_Nbr", 0.1, tiny, src); err == nil {
		t.Error("single-value domain accepted")
	}
}

func TestResortPreservesContent(t *testing.T) {
	r, _ := attackData(t, 3000)
	out := Resort(r, stats.NewSource("a4"))
	if !sameTuplesByKey(out, r) {
		t.Fatal("resort changed content")
	}
	if out.Equal(r) {
		t.Fatal("resort produced the identical order (3000 tuples!)")
	}
}

func TestSortByAttr(t *testing.T) {
	r, _ := attackData(t, 500)
	out, err := SortByAttr(r, "Item_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuplesByKey(out, r) {
		t.Fatal("sort changed content")
	}
	for i := 1; i < out.Len(); i++ {
		a, _ := out.Value(i-1, "Item_Nbr")
		b, _ := out.Value(i, "Item_Nbr")
		ai, _ := strconv.Atoi(a)
		bi, _ := strconv.Atoi(b)
		if ai > bi {
			t.Fatal("not sorted")
		}
	}
	if _, err := SortByAttr(r, "ghost"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestVerticalPartition(t *testing.T) {
	r, _ := attackData(t, 1000)
	part, dropped, err := VerticalPartition(r, "Item_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	if part.Schema().Arity() != 1 {
		t.Fatal("projection kept extra attributes")
	}
	if part.Len()+dropped != 1000 {
		t.Fatalf("partition lost tuples: %d + %d != 1000", part.Len(), dropped)
	}
}

func TestBijectiveRemap(t *testing.T) {
	r, dom := attackData(t, 3000)
	out, forward, err := BijectiveRemap(r, "Item_Nbr", stats.NewSource("a6"))
	if err != nil {
		t.Fatal(err)
	}
	if len(forward) > dom.Size() {
		t.Fatalf("mapping has %d entries for %d values", len(forward), dom.Size())
	}
	// Bijectivity: distinct values map to distinct images.
	img := map[string]bool{}
	for _, v := range forward {
		if img[v] {
			t.Fatal("mapping not injective")
		}
		img[v] = true
	}
	// Every tuple's value is the image of its original.
	for i := 0; i < r.Len(); i++ {
		v1, _ := r.Value(i, "Item_Nbr")
		v2, _ := out.Value(i, "Item_Nbr")
		if forward[v1] != v2 {
			t.Fatalf("row %d: %q should map to %q, got %q", i, v1, forward[v1], v2)
		}
	}
	// Frequencies are preserved under the bijection.
	hOrig, _ := relation.HistogramOf(r, "Item_Nbr")
	hOut, _ := relation.HistogramOf(out, "Item_Nbr")
	for _, l := range hOrig.Labels() {
		if hOrig.Count(l) != hOut.Count(forward[l]) {
			t.Fatalf("frequency of %q not preserved", l)
		}
	}
}

func TestAttacksDeterministic(t *testing.T) {
	r, dom := attackData(t, 2000)
	a1, err := SubsetAlteration(r, "Item_Nbr", 0.2, dom, stats.NewSource("det"))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := SubsetAlteration(r, "Item_Nbr", 0.2, dom, stats.NewSource("det"))
	if err != nil {
		t.Fatal(err)
	}
	if !a1.Equal(a2) {
		t.Fatal("same seed produced different attacks")
	}
}

// sameTuplesByKey reports whether a and b hold the same tuples in any
// order, matching rows by primary key.
func sameTuplesByKey(a, b *relation.Relation) bool {
	if !a.Schema().Equal(b.Schema()) || a.Len() != b.Len() {
		return false
	}
	bRow := keyRows(b)
	for i := 0; i < a.Len(); i++ {
		j, ok := bRow[a.Key(i)]
		if !ok || !slices.Equal(a.Tuple(i), b.Tuple(j)) {
			return false
		}
	}
	return true
}

// keyRows maps each primary-key value of r to its row.
func keyRows(r *relation.Relation) map[string]int {
	rows := make(map[string]int, r.Len())
	for i := 0; i < r.Len(); i++ {
		rows[r.Key(i)] = i
	}
	return rows
}
