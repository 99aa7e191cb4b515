package freq

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/ecc"
	"repro/internal/quality"
	"repro/internal/relation"
	"repro/internal/stats"
)

// histCounts flattens a histogram into label → count for comparison.
func histCounts(h *stats.Histogram) map[string]int {
	out := make(map[string]int, h.Distinct())
	for _, l := range h.Labels() {
		out[l] = h.Count(l)
	}
	return out
}

// histTotal is the occurrence total h's Freq divides by, read back
// through Freq (0 for an empty histogram).
func histTotal(h *stats.Histogram) int {
	labels := h.Labels()
	if len(labels) == 0 {
		return 0
	}
	return int(math.Round(float64(h.Count(labels[0])) / h.Freq(labels[0])))
}

// TestMapHistogramMatchesApplyMapping: pushing the suspect's counts
// through a mapping gives exactly the histogram of a copy rewritten by
// ApplyMapping — for a total bijection, a mapping that misses labels,
// one that merges two labels, and one whose images are new labels.
func TestMapHistogramMatchesApplyMapping(t *testing.T) {
	r := freqData(t, 8000)
	dom, err := relation.DomainOf(r, "Item_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	hist, err := relation.HistogramOf(r, "Item_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	before := histCounts(hist)
	total := make(map[string]string, dom.Size())
	partial := make(map[string]string)
	for i := 0; i < dom.Size(); i++ {
		total[dom.Value(i)] = dom.Value((i + 1) % dom.Size())
		if i%4 == 0 {
			partial[dom.Value(i)] = "fresh-" + dom.Value(i)
		}
	}
	mappings := map[string]map[string]string{
		"bijection": total,
		"partial":   partial,
		"merge":     {dom.Value(0): dom.Value(1), dom.Value(2): dom.Value(1)},
		"empty":     {},
	}
	for name, m := range mappings {
		mapped := r.Clone()
		if _, err := ApplyMapping(mapped, "Item_Nbr", m); err != nil {
			t.Fatal(err)
		}
		want, err := relation.HistogramOf(mapped, "Item_Nbr")
		if err != nil {
			t.Fatal(err)
		}
		got := MapHistogram(hist, m)
		if !reflect.DeepEqual(histCounts(got), histCounts(want)) || histTotal(got) != histTotal(want) {
			t.Fatalf("%s: MapHistogram differs from HistogramOf after ApplyMapping", name)
		}
	}
	if !reflect.DeepEqual(histCounts(hist), before) {
		t.Fatal("MapHistogram modified its input")
	}
}

// TestEmbedCountsMatchesRecount: the histogram EmbedCounts keeps move by
// move equals a recount of the marked relation, and the profile built
// from it is ProfileOf's — with and without a quality budget that vetoes
// moves.
func TestEmbedCountsMatchesRecount(t *testing.T) {
	for _, budget := range []int{0, 25} {
		r := freqData(t, 12000)
		p := freqParams()
		if budget > 0 {
			p.Assessor = quality.NewAssessor(quality.MaxAlterationFraction(1, budget))
		}
		st, hist, err := EmbedCounts(r, "Item_Nbr", ecc.MustParseBits("10110"), p)
		if err != nil {
			t.Fatal(err)
		}
		if st.TuplesMoved == 0 {
			t.Fatal("nothing moved: the counts were never updated")
		}
		want, err := relation.HistogramOf(r, "Item_Nbr")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(histCounts(hist), histCounts(want)) || histTotal(hist) != histTotal(want) {
			t.Fatalf("budget %d: EmbedCounts histogram differs from a recount", budget)
		}
		profile, err := ProfileOf(r, "Item_Nbr")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ProfileOfHistogram(hist), profile) {
			t.Fatalf("budget %d: profile from the kept counts differs from ProfileOf", budget)
		}
	}
}

// TestHistogramFormsMatchRelationForms: the histogram-taking forms are
// what the relation-taking wrappers compute.
func TestHistogramFormsMatchRelationForms(t *testing.T) {
	r := freqData(t, 10000)
	p := freqParams()
	wm := ecc.MustParseBits("1011")
	if _, err := Embed(r, "Item_Nbr", wm, p); err != nil {
		t.Fatal(err)
	}
	reference, err := ProfileOf(r, "Item_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	hist, err := relation.HistogramOf(r, "Item_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	m1, err1 := RecoverMapping(r, "Item_Nbr", reference)
	m2, err2 := RecoverMappingFrom(hist, reference)
	if err1 != nil || err2 != nil || !reflect.DeepEqual(m1, m2) {
		t.Fatalf("RecoverMappingFrom differs: %v / %v", err1, err2)
	}
	if _, err := RecoverMappingFrom(hist, nil); err == nil {
		t.Fatal("empty reference profile accepted")
	}
	d1, err1 := Detect(r, "Item_Nbr", len(wm), p)
	d2, err2 := DetectHistogram(hist, len(wm), p)
	if err1 != nil || err2 != nil || !reflect.DeepEqual(d1, d2) {
		t.Fatalf("DetectHistogram differs: %v / %v", err1, err2)
	}
}
