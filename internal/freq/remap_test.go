package freq

import (
	"strconv"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/relation"
	"repro/internal/stats"
)

// remapAttack applies a random bijection to attr, returning the forward
// mapping (original -> new label).
func remapAttack(t *testing.T, r *relation.Relation, attr string, dom *relation.Domain, seed string) map[string]string {
	t.Helper()
	src := stats.NewSource("remap-attack/" + seed)
	perm := src.Perm(dom.Size())
	forward := make(map[string]string, dom.Size())
	for i, p := range perm {
		forward[dom.Value(i)] = "REMAP_" + strconv.Itoa(p)
	}
	if _, err := ApplyMapping(r, attr, forward); err != nil {
		t.Fatal(err)
	}
	return forward
}

func TestRecoverMappingExact(t *testing.T) {
	r, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: 40000, CatalogSize: 60, ZipfS: 1.2, Seed: "remap",
	})
	if err != nil {
		t.Fatal(err)
	}
	reference, err := ProfileOf(r, "Item_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	forward := remapAttack(t, r, "Item_Nbr", dom, "exact")
	truth := make(map[string]string, len(forward)) // new -> original
	for orig, nv := range forward {
		truth[nv] = orig
	}
	recovered, err := RecoverMapping(r, "Item_Nbr", reference)
	if err != nil {
		t.Fatal(err)
	}
	// Zipf with 60 well-separated ranks over 40k tuples: frequencies are
	// distinct, recovery should be (near) perfect.
	if acc := MappingAccuracy(recovered, truth); acc < 0.95 {
		t.Fatalf("recovery accuracy %v", acc)
	}
}

// The paper's full pipeline: watermark via the key-association channel,
// suffer an A6 remapping, recover the inverse from frequencies, detect.
func TestRemapRecoveryRestoresDetection(t *testing.T) {
	r, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: 40000, CatalogSize: 60, ZipfS: 1.2, Seed: "remap-detect",
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := mark.Options{
		Attr:   "Item_Nbr",
		K1:     keyhash.NewKey("remap-k1"),
		K2:     keyhash.NewKey("remap-k2"),
		E:      40,
		Domain: dom,
	}
	wm := ecc.MustParseBits("1011001110")
	if _, err := mark.Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}
	reference, err := ProfileOf(r, "Item_Nbr")
	if err != nil {
		t.Fatal(err)
	}

	remapAttack(t, r, "Item_Nbr", dom, "detect")

	// Straight detection now sees only unknown values.
	repBroken, err := mark.Detect(r, len(wm), opts)
	if err != nil {
		t.Fatal(err)
	}
	if repBroken.UnknownValues == 0 {
		t.Fatal("remap attack left known values?")
	}

	// Recover and invert the mapping, then detect again.
	inverse, err := RecoverMapping(r, "Item_Nbr", reference)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyMapping(r, "Item_Nbr", inverse); err != nil {
		t.Fatal(err)
	}
	rep, err := mark.Detect(r, len(wm), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MatchFraction(wm) < 0.9 {
		t.Fatalf("post-recovery match %v", rep.MatchFraction(wm))
	}
}

func TestRecoverMappingUnderDataLoss(t *testing.T) {
	r, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: 40000, CatalogSize: 40, ZipfS: 1.3, Seed: "remap-loss",
	})
	if err != nil {
		t.Fatal(err)
	}
	reference, err := ProfileOf(r, "Item_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	forward := remapAttack(t, r, "Item_Nbr", dom, "loss")
	truth := make(map[string]string, len(forward))
	for orig, nv := range forward {
		truth[nv] = orig
	}
	// Drop 40% of tuples after remapping.
	src := stats.NewSource("remap-loss-subset")
	sub, err := r.SelectRows(src.Sample(r.Len(), r.Len()*6/10))
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := RecoverMapping(sub, "Item_Nbr", reference)
	if err != nil {
		t.Fatal(err)
	}
	// Sampling noise swaps near-tied ranks in the Zipf tail; label-count
	// accuracy degrades there, but the mass-weighted accuracy — which is
	// what detection quality tracks — must stay high, and overall label
	// accuracy must beat chance by a wide margin.
	if acc := MappingAccuracy(recovered, truth); acc < 0.4 {
		t.Fatalf("label recovery accuracy under loss %v", acc)
	}
	if macc := MappingMassAccuracy(recovered, truth, reference); macc < 0.85 {
		t.Fatalf("mass recovery accuracy under loss %v", macc)
	}
}

func TestRecoverMappingErrors(t *testing.T) {
	r, _, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: 1000, CatalogSize: 20, ZipfS: 1, Seed: "err",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverMapping(r, "Item_Nbr", Profile{}); err == nil {
		t.Error("empty reference accepted")
	}
	if _, err := RecoverMapping(r, "ghost", Profile{"a": 1}); err == nil {
		t.Error("unknown attribute accepted")
	}
	// Suspect with more distinct values than the reference.
	small := Profile{"x": 0.5, "y": 0.5}
	if _, err := RecoverMapping(r, "Item_Nbr", small); err == nil {
		t.Error("non-bijective image accepted")
	}
}

func TestApplyMappingCountsAndSkips(t *testing.T) {
	s := relation.MustSchema([]relation.Attribute{
		{Name: "k", Type: relation.TypeInt},
		{Name: "a", Type: relation.TypeString, Categorical: true},
	}, "k")
	r := relation.New(s)
	for i, v := range []string{"x", "y", "z", "x"} {
		r.MustAppend(relation.Tuple{strconv.Itoa(i), v})
	}
	changed, err := ApplyMapping(r, "a", map[string]string{"x": "X", "y": "y"})
	if err != nil {
		t.Fatal(err)
	}
	if changed != 2 { // two x's; y->y is a no-op; z unmapped
		t.Fatalf("changed %d, want 2", changed)
	}
	if v, _ := r.Value(2, "a"); v != "z" {
		t.Fatal("unmapped value altered")
	}
	if _, err := ApplyMapping(r, "ghost", nil); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestMappingAccuracy(t *testing.T) {
	truth := map[string]string{"a": "1", "b": "2"}
	if acc := MappingAccuracy(map[string]string{"a": "1", "b": "9"}, truth); acc != 0.5 {
		t.Fatalf("accuracy %v, want 0.5", acc)
	}
	if acc := MappingAccuracy(nil, truth); acc != 0 {
		t.Fatalf("empty accuracy %v", acc)
	}
}

func TestProfileOf(t *testing.T) {
	r, _, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: 2000, CatalogSize: 10, ZipfS: 1, Seed: "profile",
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProfileOf(r, "Item_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, f := range p {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("profile sums to %v", sum)
	}
	if _, err := ProfileOf(r, "ghost"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

// MappingAccuracy and MappingMassAccuracy score a recovered mapping
// against the true inverse; the remap-recovery tests measure with them.

// MappingAccuracy compares a recovered mapping with the true inverse
// mapping, returning the fraction of suspect labels mapped correctly —
// used by the remap-recovery experiments.
func MappingAccuracy(recovered, truth map[string]string) float64 {
	if len(recovered) == 0 {
		return 0
	}
	ok := 0
	for k, v := range recovered {
		if truth[k] == v {
			ok++
		}
	}
	return float64(ok) / float64(len(recovered))
}

// MappingMassAccuracy weights each correctly recovered label by its
// reference frequency. Rank swaps concentrate in the near-tied tail of a
// Zipf profile, so mass accuracy — which predicts how many *tuples* map
// back correctly, and hence how well detection recovers — is the more
// meaningful figure under data loss.
func MappingMassAccuracy(recovered, truth map[string]string, reference Profile) float64 {
	totalMass, okMass := 0.0, 0.0
	for k, v := range recovered {
		m := reference[truth[k]]
		totalMass += m
		if truth[k] == v {
			okMass += m
		}
	}
	if totalMass == 0 {
		return 0
	}
	return okMass / totalMass
}
