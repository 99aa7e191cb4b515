package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attacks"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/stats"
)

func coreData(t *testing.T, n int) (*relation.Relation, *relation.Domain) {
	t.Helper()
	r, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: n, CatalogSize: 300, ZipfS: 1.1, Seed: "core-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, dom
}

func TestWatermarkVerifyRoundTrip(t *testing.T) {
	r, dom := coreData(t, 12000)
	rec, st, err := Watermark(r, Spec{
		Secret:    "owner-secret",
		Attribute: "Item_Nbr",
		WM:        "1011001110",
		E:         50,
		Domain:    dom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mark.Altered == 0 {
		t.Fatal("nothing embedded")
	}
	rep, err := rec.VerifyWith(r, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Match != 1 {
		t.Fatalf("match %v, want 1.0", rep.Match)
	}
	if rep.Detected != "1011001110" {
		t.Fatalf("detected %s", rep.Detected)
	}
	if rep.RemapRecovered {
		t.Fatal("remap recovery triggered without a remap")
	}
}

func TestVerifyAfterSubsetAndShuffle(t *testing.T) {
	r, dom := coreData(t, 20000)
	rec, _, err := Watermark(r, Spec{
		Secret: "s", Attribute: "Item_Nbr", WM: "1100110010", E: 50, Domain: dom,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := stats.NewSource("core-attack")
	attacked, err := attacks.HorizontalSubset(r, 0.5, src)
	if err != nil {
		t.Fatal(err)
	}
	attacked = attacks.Resort(attacked, src)
	rep, err := rec.VerifyWith(attacked, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Match < 1 {
		t.Fatalf("match %v after 50%% loss + shuffle", rep.Match)
	}
}

func TestVerifyAutoRemapRecovery(t *testing.T) {
	r, dom := coreData(t, 30000)
	rec, _, err := Watermark(r, Spec{
		Secret: "s", Attribute: "Item_Nbr", WM: "10110011", E: 40, Domain: dom,
	})
	if err != nil {
		t.Fatal(err)
	}
	remapped, _, err := attacks.BijectiveRemap(r, "Item_Nbr", stats.NewSource("core-remap"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rec.VerifyWith(remapped, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RemapRecovered {
		t.Fatal("remap recovery did not trigger")
	}
	if rep.Match < 0.7 {
		t.Fatalf("match %v after remap recovery", rep.Match)
	}
	// The suspect relation itself must be untouched by verification.
	v, _ := remapped.Value(0, "Item_Nbr")
	if !strings.HasPrefix(v, "M_") {
		t.Fatal("Verify modified the suspect relation")
	}
}

func TestWatermarkWithFrequencyChannel(t *testing.T) {
	r, dom := coreData(t, 30000)
	rec, st, err := Watermark(r, Spec{
		Secret: "s", Attribute: "Item_Nbr", WM: "101101", E: 50, Domain: dom,
		WithFrequencyChannel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.FrequencyMoved == 0 {
		t.Fatal("frequency channel moved nothing")
	}
	rep, err := rec.VerifyWith(r, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Match < 0.9 {
		t.Fatalf("primary match %v with frequency channel enabled", rep.Match)
	}
	if rep.FrequencyMatch < 0.9 {
		t.Fatalf("frequency match %v", rep.FrequencyMatch)
	}
}

func TestWatermarkAlterationBudget(t *testing.T) {
	r, dom := coreData(t, 12000)
	orig := r.Clone()
	_, st, err := Watermark(r, Spec{
		Secret: "s", Attribute: "Item_Nbr", WM: "1011", E: 20, Domain: dom,
		MaxAlterationFraction: 0.005, // 60 tuples
	})
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := 0; i < r.Len(); i++ {
		a, _ := r.Value(i, "Item_Nbr")
		b, _ := orig.Value(i, "Item_Nbr")
		if a != b {
			changed++
		}
	}
	if changed > 60 {
		t.Fatalf("changed %d tuples, budget 60", changed)
	}
	if st.Mark.SkippedQuality == 0 {
		t.Fatal("budget never engaged")
	}
}

func TestWatermarkSpecValidation(t *testing.T) {
	r, dom := coreData(t, 1000)
	cases := []Spec{
		{Secret: "", Attribute: "Item_Nbr", WM: "1010"},
		{Secret: "s", Attribute: "Item_Nbr", WM: ""},
		{Secret: "s", Attribute: "Item_Nbr", WM: "10a0"},
		{Secret: "s", Attribute: "ghost", WM: "1010"},
	}
	for i, spec := range cases {
		spec.Domain = dom
		if spec.Attribute == "ghost" {
			spec.Domain = nil
		}
		if _, _, err := Watermark(r.Clone(), spec); err == nil {
			t.Errorf("spec %d accepted", i)
		}
	}
}

func TestRecordSaveLoad(t *testing.T) {
	r, dom := coreData(t, 6000)
	rec, _, err := Watermark(r, Spec{
		Secret: "persist", Attribute: "Item_Nbr", WM: "110010", E: 40, Domain: dom,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rec.Save()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := back.VerifyWith(r, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Match != 1 {
		t.Fatalf("match %v after record round trip", rep.Match)
	}
}

func TestLoadRecordErrors(t *testing.T) {
	if _, err := LoadRecord([]byte("{not json")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := LoadRecord([]byte("{}")); err == nil {
		t.Error("empty record accepted")
	}
}

func TestVerifyWrongSecretFails(t *testing.T) {
	r, dom := coreData(t, 12000)
	rec, _, err := Watermark(r, Spec{
		Secret: "right", Attribute: "Item_Nbr", WM: "1011001110", E: 50, Domain: dom,
	})
	if err != nil {
		t.Fatal(err)
	}
	stolen := *rec
	stolen.Secret = "wrong"
	rep, err := stolen.VerifyWith(r, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Match == 1 {
		t.Fatal("wrong secret produced a perfect match")
	}
}

// TestWatermarkDerivedDomainMatchesGiven: without Spec.Domain,
// Watermark derives the domain from one coding pass and refreshes that
// coding after the key-association pass for the counts; the
// certificate, the statistics and the marked relation must equal those
// of a run given DomainOf up front, with and without the frequency
// channel and a quality budget.
func TestWatermarkDerivedDomainMatchesGiven(t *testing.T) {
	for _, seed := range []string{"a", "b", "c"} {
		clean, _, err := datagen.ItemScan(datagen.ItemScanConfig{
			N: 8000, CatalogSize: 120, ZipfS: 1.1, Seed: "derived-" + seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		dom, err := relation.DomainOf(clean, "Item_Nbr")
		if err != nil {
			t.Fatal(err)
		}
		for _, withFreq := range []bool{false, true} {
			for _, budget := range []float64{0, 0.06} {
				spec := Spec{
					Secret: "derived-" + seed, Attribute: "Item_Nbr", WM: "1011001110", E: 20,
					WithFrequencyChannel: withFreq, MaxAlterationFraction: budget,
				}
				derived := clean.Clone()
				recD, stD, err := Watermark(derived, spec)
				if err != nil {
					t.Fatal(err)
				}
				spec.Domain = dom
				given := clean.Clone()
				recG, stG, err := Watermark(given, spec)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("seed %s freq %v budget %v", seed, withFreq, budget)
				jsonD, _ := recD.Save()
				jsonG, _ := recG.Save()
				if string(jsonD) != string(jsonG) {
					t.Fatalf("%s: certificates differ", name)
				}
				if !reflect.DeepEqual(stD, stG) || !derived.Equal(given) {
					t.Fatalf("%s: stats or marked relation differ: %+v vs %+v", name, stD, stG)
				}
				if stD.Mark.Altered == 0 || withFreq && stD.FrequencyMoved == 0 {
					t.Fatalf("%s: nothing moved: %+v", name, stD)
				}
			}
		}
	}
}
