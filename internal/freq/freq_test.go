package freq

import (
	"strconv"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/numeric"
	"repro/internal/quality"
	"repro/internal/relation"
	"repro/internal/stats"
)

func freqParams() Params {
	return DefaultParams(keyhash.NewKey("freq-key"))
}

func freqData(t *testing.T, n int) *relation.Relation {
	t.Helper()
	r, _, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: n, CatalogSize: 400, ZipfS: 1.0, Seed: "freq-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFreqEmbedDetectRoundTrip(t *testing.T) {
	r := freqData(t, 30000)
	p := freqParams()
	wm := ecc.MustParseBits("101101")
	st, err := Embed(r, "Item_Nbr", wm, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.TuplesMoved == 0 {
		t.Fatal("no tuples moved")
	}
	if st.Residual != 0 {
		t.Fatalf("residual %d", st.Residual)
	}
	rep, err := Detect(r, "Item_Nbr", len(wm), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatalf("round trip: %s vs %s", wm, rep.WM)
	}
}

func TestFreqSurvivesExtremeVerticalPartition(t *testing.T) {
	// Attack A5, extreme: only the categorical attribute survives — no
	// primary key at all.
	r := freqData(t, 30000)
	p := freqParams()
	wm := ecc.MustParseBits("110010")
	if _, err := Embed(r, "Item_Nbr", wm, p); err != nil {
		t.Fatal(err)
	}
	part, _, err := r.Project("Item_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	// The projection dedupes on its new key; re-detection must use the
	// *unprojected* multiset, so partition horizontally instead: keep the
	// single column by building a one-column relation with synthetic keys.
	single := relation.New(relation.MustSchema([]relation.Attribute{
		{Name: "rowid", Type: relation.TypeInt},
		{Name: "Item_Nbr", Type: relation.TypeInt, Categorical: true},
	}, "rowid"))
	for i := 0; i < r.Len(); i++ {
		v, _ := r.Value(i, "Item_Nbr")
		single.MustAppend(relation.Tuple{strconv.Itoa(i), v})
	}
	rep, err := Detect(single, "Item_Nbr", len(wm), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatalf("single-attribute detection: %s vs %s", wm, rep.WM)
	}
	_ = part // deduped projection is exercised elsewhere
}

func TestFreqSurvivesSubsetSelection(t *testing.T) {
	r := freqData(t, 40000)
	p := freqParams()
	wm := ecc.MustParseBits("10110")
	if _, err := Embed(r, "Item_Nbr", wm, p); err != nil {
		t.Fatal(err)
	}
	src := stats.NewSource("freq-subset")
	sub, err := r.SelectRows(src.Sample(r.Len(), r.Len()*7/10))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Detect(sub, "Item_Nbr", len(wm), p)
	if err != nil {
		t.Fatal(err)
	}
	if ecc.AlterationRate(wm, rep.WM) > 0.2 {
		t.Fatalf("30%% loss corrupted frequency mark: %s vs %s", wm, rep.WM)
	}
}

func TestFreqSurvivesResorting(t *testing.T) {
	r := freqData(t, 20000)
	p := freqParams()
	wm := ecc.MustParseBits("1011")
	if _, err := Embed(r, "Item_Nbr", wm, p); err != nil {
		t.Fatal(err)
	}
	r.Shuffle(stats.NewSource("freq-resort"))
	rep, err := Detect(r, "Item_Nbr", len(wm), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatal("re-sorting broke frequency detection (histogram is order-free!)")
	}
}

func TestFreqEmbedErrors(t *testing.T) {
	r := freqData(t, 1000)
	p := freqParams()
	if _, err := Embed(r, "ghost", ecc.MustParseBits("10"), p); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := Embed(r, "Item_Nbr", ecc.Bits{}, p); err == nil {
		t.Error("empty wm accepted")
	}
	empty := relation.New(r.Schema())
	if _, err := Embed(empty, "Item_Nbr", ecc.MustParseBits("10"), p); err == nil {
		t.Error("empty relation accepted")
	}
	if _, err := Detect(r, "ghost", 2, p); err == nil {
		t.Error("detect on unknown attribute accepted")
	}
}

func TestFreqEmbedTooManyBits(t *testing.T) {
	// More watermark bits than distinct values.
	s := relation.MustSchema([]relation.Attribute{
		{Name: "k", Type: relation.TypeInt},
		{Name: "a", Type: relation.TypeString, Categorical: true},
	}, "k")
	r := relation.New(s)
	for i := 0; i < 100; i++ {
		r.MustAppend(relation.Tuple{strconv.Itoa(i), "v" + strconv.Itoa(i%3)})
	}
	if _, err := Embed(r, "a", ecc.MustParseBits("1010"), freqParams()); err == nil {
		t.Error("4 bits over 3 values accepted")
	}
}

func TestFreqEmbedWithQualityConstraints(t *testing.T) {
	r := freqData(t, 20000)
	p := freqParams()
	assessor := quality.NewAssessor(quality.MaxAlterations(25))
	p.Assessor = assessor
	wm := ecc.MustParseBits("1011")
	st, err := Embed(r, "Item_Nbr", wm, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.TuplesMoved > 25 {
		t.Fatalf("moved %d tuples despite a budget of 25", st.TuplesMoved)
	}
	// A tight budget leaves residual demand — it must be reported.
	if st.TuplesMoved == 25 && st.Residual == 0 {
		t.Log("note: target reached exactly at the budget")
	}
}

func TestFreqTotalCountConserved(t *testing.T) {
	r := freqData(t, 15000)
	n0 := r.Len()
	p := freqParams()
	if _, err := Embed(r, "Item_Nbr", ecc.MustParseBits("10110"), p); err != nil {
		t.Fatal(err)
	}
	if r.Len() != n0 {
		t.Fatal("embedding changed the tuple count")
	}
	hist, _ := relation.HistogramOf(r, "Item_Nbr")
	if hist.Total() != n0 {
		t.Fatal("histogram total drifted")
	}
}

func TestFreqMinimality(t *testing.T) {
	// The moved-tuple count should be a small fraction of N — the paper's
	// "minimizing absolute data change ... naturally minimizes the number
	// of items changed".
	r := freqData(t, 30000)
	p := freqParams()
	st, err := Embed(r, "Item_Nbr", ecc.MustParseBits("101101"), p)
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(st.TuplesMoved) / float64(r.Len()); frac > 0.10 {
		t.Fatalf("moved %.1f%% of tuples — not minimal", frac*100)
	}
}

func TestApportionConservesTotal(t *testing.T) {
	items := []numeric.Item{
		{Label: "a", Value: 0.305}, {Label: "b", Value: 0.295},
		{Label: "c", Value: 0.2}, {Label: "d", Value: 0.2},
	}
	counts := apportion(items, 1003)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 1003 {
		t.Fatalf("apportioned total %d, want 1003", total)
	}
}

func TestApportionNegativeClamped(t *testing.T) {
	items := []numeric.Item{
		{Label: "a", Value: -0.1}, {Label: "b", Value: 0.5}, {Label: "c", Value: 0.5},
	}
	counts := apportion(items, 100)
	if counts[0] != 0 {
		t.Fatalf("negative-frequency label got %d", counts[0])
	}
	if counts[1]+counts[2] != 100 {
		t.Fatal("total not conserved under clamping")
	}
}
