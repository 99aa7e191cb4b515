package mark

import (
	"testing"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/stats"
)

func TestMapVariantRoundTrip(t *testing.T) {
	r, dom := testData(t, 6000)
	opts := testOptions(dom)
	opts.K2 = nil // the map variant must not need k2
	wm := ecc.MustParseBits("1011001110")

	em, st, err := EmbedWithMap(r, wm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(em) == 0 || st.Altered == 0 {
		t.Fatalf("map embedding did nothing: map=%d, %+v", len(em), st)
	}
	rep, err := DetectWithMap(r, len(wm), em, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatalf("map round trip: %s vs %s", wm, rep.WM)
	}
	if rep.MeanMargin != 1 {
		t.Fatalf("map placement margin %v, want 1", rep.MeanMargin)
	}
}

// Figure 1(b) assigns sequential indices, so every wm_data bit up to the
// fit count is embedded exactly once — no collisions.
func TestMapVariantSequentialCoverage(t *testing.T) {
	r, dom := testData(t, 6000)
	opts := testOptions(dom)
	wm := ecc.MustParseBits("101100")
	em, st, err := EmbedWithMap(r, wm, opts)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool, len(em))
	max := -1
	for _, idx := range em {
		if seen[idx] {
			t.Fatalf("wm_data index %d assigned twice", idx)
		}
		seen[idx] = true
		if idx > max {
			max = idx
		}
	}
	if max != len(em)-1 {
		t.Fatalf("indices not dense: max %d over %d entries", max, len(em))
	}
	if st.PositionsTouched != len(em) {
		t.Fatalf("positions touched %d != map size %d", st.PositionsTouched, len(em))
	}
}

func TestMapVariantSurvivesSubsetSelection(t *testing.T) {
	r, dom := testData(t, 12000)
	opts := testOptions(dom)
	wm := ecc.MustParseBits("1011001110")
	em, _, err := EmbedWithMap(r, wm, opts)
	if err != nil {
		t.Fatal(err)
	}
	src := stats.NewSource("map-subset")
	sub, err := r.SelectRows(src.Sample(r.Len(), r.Len()/2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := DetectWithMap(sub, len(wm), em, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatalf("map variant under 50%% loss: %s vs %s", wm, rep.WM)
	}
	// Half the map entries should decode as erasures, roughly.
	if rep.PositionsFilled >= len(em) {
		t.Fatal("no erasures despite 50% data loss")
	}
}

func TestMapVariantResorting(t *testing.T) {
	r, dom := testData(t, 5000)
	opts := testOptions(dom)
	wm := ecc.MustParseBits("110110")
	em, _, err := EmbedWithMap(r, wm, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.Shuffle(stats.NewSource("map-resort"))
	rep, err := DetectWithMap(r, len(wm), em, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatal("map variant not resilient to re-sorting")
	}
}

func TestDetectWithMapErrors(t *testing.T) {
	r, dom := testData(t, 1000)
	opts := testOptions(dom)
	if _, err := DetectWithMap(r, 4, EmbeddingMap{}, opts); err == nil {
		t.Error("empty map accepted")
	}
	if _, err := DetectWithMap(r, 0, EmbeddingMap{"1": 0}, opts); err == nil {
		t.Error("zero wmLen accepted")
	}
	if _, err := DetectWithMap(r, 4, EmbeddingMap{"1": -2}, opts); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := DetectWithMap(r, 4, EmbeddingMap{"1": 2}, opts); err == nil {
		t.Error("bandwidth 3 < wmLen 4 accepted")
	}
}

func TestMapVariantIgnoresUnmappedFitTuples(t *testing.T) {
	// A2-added tuples that happen to be fit must not perturb detection.
	r, dom := testData(t, 6000)
	opts := testOptions(dom)
	wm := ecc.MustParseBits("10110011")
	em, _, err := EmbedWithMap(r, wm, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Mint keys that are fit but absent from the map, with hostile values.
	added := 0
	for i := 0; added < 50 && i < 100000; i++ {
		key := "999" + itoa(i)
		if keyhash.Fit(keyhash.HashString(opts.K1, key), opts.E) {
			r.MustAppend([]string{key, dom.Value(added % dom.Size())})
			added++
		}
	}
	rep, err := DetectWithMap(r, len(wm), em, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatalf("unmapped fit tuples corrupted detection: %s vs %s", wm, rep.WM)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
