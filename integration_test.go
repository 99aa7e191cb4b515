package repro_test

// Cross-package integration scenarios: full pipelines composing the core
// codec, the quality assessor with the constraint language, the attack
// suite, multi-attribute embedding, and the frequency channel — the ways a
// downstream user would actually combine the packages.

import (
	"bytes"
	"strconv"
	"testing"

	"repro/internal/attacks"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/ecc"
	"repro/internal/freq"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/multimark"
	"repro/internal/quality"
	"repro/internal/relation"
	"repro/internal/stats"
)

// TestGauntlet runs the full adversary model against one watermarked
// relation: every attack class, stacked compositions included, against the
// core certificate API.
func TestGauntlet(t *testing.T) {
	r, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: 30000, CatalogSize: 500, ZipfS: 1.0, Seed: "gauntlet",
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := core.Watermark(r, core.Spec{
		Secret:    "gauntlet-secret",
		Attribute: "Item_Nbr",
		WM:        "1011001110",
		E:         60,
		Domain:    dom,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := stats.NewSource("gauntlet-attacks")

	check := func(name string, attacked *relation.Relation, minMatch float64) {
		t.Helper()
		rep, err := rec.VerifyWith(attacked, core.VerifyOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Match < minMatch {
			t.Errorf("%s: match %.2f < %.2f", name, rep.Match, minMatch)
		}
	}

	// A1 at three severities.
	for _, keep := range []float64{0.8, 0.5, 0.2} {
		a, err := attacks.HorizontalSubset(r, keep, src.Fork("a1-"+strconv.Itoa(int(keep*100))))
		if err != nil {
			t.Fatal(err)
		}
		check("A1 keep "+strconv.Itoa(int(keep*100))+"%", a, 1.0)
	}
	// A2.
	a2, err := attacks.SubsetAddition(r, 0.4, src.Fork("a2"))
	if err != nil {
		t.Fatal(err)
	}
	check("A2 +40%", a2, 0.9)
	// A3 moderate.
	a3, err := attacks.SubsetAlteration(r, "Item_Nbr", 0.3, dom, src.Fork("a3"))
	if err != nil {
		t.Fatal(err)
	}
	check("A3 30%", a3, 0.9)
	// A4 both forms.
	check("A4 shuffle", attacks.Resort(r, src.Fork("a4")), 1.0)
	sorted, err := attacks.SortByAttr(r, "Item_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	check("A4 sort", sorted, 1.0)
	// A6 with automatic recovery.
	a6, _, err := attacks.BijectiveRemap(r, "Item_Nbr", src.Fork("a6"))
	if err != nil {
		t.Fatal(err)
	}
	check("A6 remap+auto-recovery", a6, 0.7)

	// Stacked: A3 (15%) → A2 (+20%) → A1 (keep 60%) → A4.
	s1, err := attacks.SubsetAlteration(r, "Item_Nbr", 0.15, dom, src.Fork("s1"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := attacks.SubsetAddition(s1, 0.2, src.Fork("s2"))
	if err != nil {
		t.Fatal(err)
	}
	s3, err := attacks.HorizontalSubset(s2, 0.6, src.Fork("s3"))
	if err != nil {
		t.Fatal(err)
	}
	s4 := attacks.Resort(s3, src.Fork("s4"))
	check("stacked A3+A2+A1+A4", s4, 0.9)
}

// TestConstraintGatedEmbedding drives the Section 4.1 + Section 6 story
// end to end: the owner expresses semantic constraints in the expression
// language, the assessor enforces them during embedding, the rollback log
// can undo everything, and the watermark still detects.
func TestConstraintGatedEmbedding(t *testing.T) {
	r, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: 20000, CatalogSize: 400, ZipfS: 1.0, Seed: "constrained",
	})
	if err != nil {
		t.Fatal(err)
	}
	orig := r.Clone()

	budget, err := quality.ParseConstraint("budget",
		"altered_fraction() <= 0.02 and freq_drift('Item_Nbr') <= 0.08", r)
	if err != nil {
		t.Fatal(err)
	}
	assessor := quality.NewAssessor(budget, quality.ValueDomain("Item_Nbr", dom))
	opts := mark.Options{
		Attr:     "Item_Nbr",
		K1:       keyhash.NewKey("cons-k1"),
		K2:       keyhash.NewKey("cons-k2"),
		E:        50, // would alter ~2% unconstrained — right at the budget
		Domain:   dom,
		Assessor: assessor,
	}
	wm := ecc.MustParseBits("1011001110")
	st, err := mark.Embed(r, wm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if frac := st.AlterationRate(); frac > 0.02 {
		t.Fatalf("alteration %.4f exceeded the expressed budget", frac)
	}
	rep, err := mark.Detect(r, len(wm), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MatchFraction(wm) < 0.9 {
		t.Fatalf("constrained embedding too weak: %v", rep.MatchFraction(wm))
	}
	// The rollback log restores the original byte for byte.
	if err := assessor.UndoAll(r); err != nil {
		t.Fatal(err)
	}
	if !r.Equal(orig) {
		t.Fatal("rollback failed to restore the original relation")
	}
}

// TestBeltAndBraces combines all three embedding layers — key channel,
// multimark inter-attribute channel, frequency channel — on one relation
// and verifies each witness independently under the attack it is built for.
func TestBeltAndBraces(t *testing.T) {
	r, cities, airs, err := datagen.Airline(datagen.AirlineConfig{
		N: 30000, Cities: 1500, Airlines: 25, Seed: "belt-braces",
	})
	if err != nil {
		t.Fatal(err)
	}
	wm := ecc.MustParseBits("110101")
	cfg := multimark.Config{
		Secret: "belt-secret",
		E:      25,
		Domains: map[string]*relation.Domain{
			"departure_city": cities,
			"airline":        airs,
		},
	}
	plan, err := multimark.BuildPlan(r, cfg, multimark.PlanOptions{IncludeInterAttribute: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := multimark.EmbedAll(r, wm, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The frequency channel needs enough distinct values per watermark bit;
	// the 25-value airline attribute is too thin for 6 bits and must say
	// so through the failure report rather than silently half-encode.
	fp := freq.DefaultParams(keyhash.NewKey("belt-freq"))
	thinStats, err := freq.Embed(r.Clone(), "airline", wm, fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(thinStats.Numeric.Failed) == 0 {
		t.Log("note: thin attribute encoded all subsets this time")
	}
	// The 1500-value city attribute carries it comfortably.
	if _, err := freq.Embed(r, "departure_city", wm, fp); err != nil {
		t.Fatal(err)
	}

	// Witness 1: intact data through the combined channels.
	comb, err := multimark.DetectAll(r, rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if comb.WM.String() != wm.String() {
		t.Fatalf("combined channels: %s vs %s", comb.WM, wm)
	}

	// Witness 2: extreme partition to the city column only — frequency
	// channel territory.
	bag := relation.New(relation.MustSchema([]relation.Attribute{
		{Name: "rowid", Type: relation.TypeInt},
		{Name: "departure_city", Type: relation.TypeString, Categorical: true},
	}, "rowid"))
	for i := 0; i < r.Len(); i++ {
		v, _ := r.Value(i, "departure_city")
		bag.MustAppend(relation.Tuple{strconv.Itoa(i), v})
	}
	frep, err := freq.Detect(bag, "departure_city", len(wm), fp)
	if err != nil {
		t.Fatal(err)
	}
	if ecc.AlterationRate(wm, frep.WM) > 0.2 {
		t.Fatalf("frequency witness on single column: %s vs %s", frep.WM, wm)
	}
}

// TestUnicodeAndQuotedValues pushes non-ASCII and CSV-hostile categorical
// values through the full embed → CSV round trip → detect pipeline.
func TestUnicodeAndQuotedValues(t *testing.T) {
	catalog := []string{
		"München", "İstanbul", "北京", "São Paulo", "Zürich",
		`quoted "city"`, "comma, city", "tab\tcity", "Владивосток", "Kraków",
	}
	s := relation.MustSchema([]relation.Attribute{
		{Name: "id", Type: relation.TypeInt},
		{Name: "city", Type: relation.TypeString, Categorical: true},
	}, "id")
	r := relation.New(s)
	src := stats.NewSource("unicode")
	for i := 0; i < 4000; i++ {
		r.MustAppend(relation.Tuple{strconv.Itoa(i), catalog[src.Intn(len(catalog))]})
	}
	dom := relation.MustDomain(catalog)
	opts := mark.Options{
		Attr:   "city",
		K1:     keyhash.NewKey("uni-k1"),
		K2:     keyhash.NewKey("uni-k2"),
		E:      20,
		Domain: dom,
	}
	wm := ecc.MustParseBits("10110")
	if _, err := mark.Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}

	// CSV round trip.
	var buf bytes.Buffer
	if err := relation.WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := relation.ReadCSV(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mark.Detect(back, len(wm), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatalf("unicode round trip: %s vs %s", rep.WM, wm)
	}
}
