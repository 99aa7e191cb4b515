package mark

import (
	"errors"
	"strconv"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/quality"
	"repro/internal/relation"
	"repro/internal/stats"
)

func testOptions(dom *relation.Domain) Options {
	return Options{
		Attr:   "Item_Nbr",
		K1:     keyhash.NewKey("test-k1"),
		K2:     keyhash.NewKey("test-k2"),
		E:      30,
		Domain: dom,
	}
}

func testData(t *testing.T, n int) (*relation.Relation, *relation.Domain) {
	t.Helper()
	r, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: n, CatalogSize: 200, ZipfS: 1.0, Seed: "mark-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, dom
}

func TestEmbedDetectRoundTrip(t *testing.T) {
	r, dom := testData(t, 6000)
	opts := testOptions(dom)
	wm := ecc.MustParseBits("1011001110")

	st, err := Embed(r, wm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fit == 0 || st.Altered == 0 {
		t.Fatalf("embedding did nothing: %+v", st)
	}
	rep, err := Detect(r, len(wm), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatalf("round trip: embedded %s, detected %s", wm, rep.WM)
	}
	if rep.MatchFraction(wm) != 1 {
		t.Fatalf("match fraction %v", rep.MatchFraction(wm))
	}
}

func TestEmbedFitRateMatchesE(t *testing.T) {
	r, dom := testData(t, 12000)
	opts := testOptions(dom)
	opts.E = 60
	wm := ecc.MustParseBits("1010101010")
	st, err := Embed(r, wm, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(r.Len()) / 60
	if f := float64(st.Fit); f < want*0.7 || f > want*1.3 {
		t.Fatalf("fit count %d, want ~%.0f", st.Fit, want)
	}
	// The paper: data alteration ≈ N/e tuples. Altered ≤ Fit, and most fit
	// tuples need an actual rewrite (only ~1/nA already hold the value).
	if st.Altered < st.Fit/2 {
		t.Fatalf("altered %d of %d fit — too few rewrites", st.Altered, st.Fit)
	}
}

func TestEmbedOnlyTouchesFitTuplesAndAttr(t *testing.T) {
	r, dom := testData(t, 4000)
	orig := r.Clone()
	opts := testOptions(dom)
	wm := ecc.MustParseBits("110010")
	if _, err := Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Len(); i++ {
		if r.Key(i) != orig.Key(i) {
			t.Fatal("embedding changed a primary key")
		}
		vNew, _ := r.Value(i, "Item_Nbr")
		vOld, _ := orig.Value(i, "Item_Nbr")
		if vNew != vOld {
			if !keyhash.Fit(keyhash.HashString(opts.K1, r.Key(i)), opts.E) {
				t.Fatalf("non-fit tuple %d was altered", i)
			}
			if !dom.Contains(vNew) {
				t.Fatalf("altered value %q outside domain", vNew)
			}
		}
	}
}

// The parity invariant: after embedding, every fit tuple's value index
// parity equals its assigned wm_data bit.
func TestEmbedParityInvariant(t *testing.T) {
	r, dom := testData(t, 5000)
	opts := testOptions(dom)
	wm := ecc.MustParseBits("1011001110")
	if _, err := Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}
	bw := Bandwidth(r.Len(), opts.E)
	wmData, err := ecc.MajorityCode{}.Encode(wm, bw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Len(); i++ {
		key := r.Key(i)
		if !keyhash.Fit(keyhash.HashString(opts.K1, key), opts.E) {
			continue
		}
		v, _ := r.Value(i, "Item_Nbr")
		idx, ok := dom.Index(v)
		if !ok {
			t.Fatalf("fit tuple %d value %q outside domain", i, v)
		}
		pos := int(keyhash.HashString(opts.K2, key).Mod(uint64(bw)))
		if uint8(idx&1) != wmData[pos] {
			t.Fatalf("tuple %d parity %d != wm_data[%d]=%d", i, idx&1, pos, wmData[pos])
		}
	}
}

func TestDetectWrongKeysYieldsGarbage(t *testing.T) {
	r, dom := testData(t, 6000)
	opts := testOptions(dom)
	wm := ecc.MustParseBits("1011001110")
	if _, err := Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}
	bad := opts
	bad.K1 = keyhash.NewKey("wrong-1")
	bad.K2 = keyhash.NewKey("wrong-2")
	rep, err := Detect(r, len(wm), bad)
	if err != nil {
		t.Fatal(err)
	}
	// With wrong keys the detector reads random parities: expect roughly
	// half the bits to match, never all of them.
	if rep.MatchFraction(wm) == 1 {
		t.Fatal("wrong keys recovered the exact watermark")
	}
}

func TestDetectIsBlind(t *testing.T) {
	// Detection must work on the watermarked relation alone — this test
	// discards the original entirely and reconstructs options from scratch.
	r, dom := testData(t, 6000)
	wm := ecc.MustParseBits("0110110001")
	embedOpts := testOptions(dom)
	if _, err := Embed(r, wm, embedOpts); err != nil {
		t.Fatal(err)
	}
	freshOpts := Options{
		Attr:   "Item_Nbr",
		K1:     keyhash.NewKey("test-k1"),
		K2:     keyhash.NewKey("test-k2"),
		E:      30,
		Domain: dom,
	}
	rep, err := Detect(r, len(wm), freshOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatalf("blind detection failed: %s vs %s", wm, rep.WM)
	}
}

func TestDetectSurvivesResorting(t *testing.T) {
	// Attack A4: tuple order must be irrelevant.
	r, dom := testData(t, 6000)
	opts := testOptions(dom)
	wm := ecc.MustParseBits("1011001110")
	if _, err := Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}
	r.Shuffle(stats.NewSource("resort-attack"))
	rep, err := Detect(r, len(wm), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatalf("re-sorting broke detection: %s vs %s", wm, rep.WM)
	}
	if err := r.SortBy("Item_Nbr"); err != nil {
		t.Fatal(err)
	}
	rep, err = Detect(r, len(wm), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatal("sorting by attribute broke detection")
	}
}

func TestDetectSurvivesSubsetSelection(t *testing.T) {
	// Attack A1: keep a random half; positions computed against the
	// embedding-time bandwidth.
	r, dom := testData(t, 12000)
	opts := testOptions(dom)
	wm := ecc.MustParseBits("1011001110")
	if _, err := Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}
	bw := Bandwidth(r.Len(), opts.E)
	src := stats.NewSource("subset-attack")
	keep := src.Sample(r.Len(), r.Len()/2)
	sub, err := r.SelectRows(keep)
	if err != nil {
		t.Fatal(err)
	}
	detOpts := opts
	detOpts.BandwidthOverride = bw
	rep, err := Detect(sub, len(wm), detOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatalf("50%% data loss broke detection: %s vs %s", wm, rep.WM)
	}
}

func TestDetectSurvivesDataAddition(t *testing.T) {
	// Attack A2: append unmarked tuples equal to 30% of the data.
	r, dom := testData(t, 8000)
	opts := testOptions(dom)
	wm := ecc.MustParseBits("1011001110")
	if _, err := Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}
	bw := Bandwidth(r.Len(), opts.E)
	src := stats.NewSource("addition-attack")
	zipf := stats.NewZipf(dom.Size(), 1.0)
	for i := 0; i < 2400; i++ {
		r.MustAppend(relation.Tuple{
			strconv.Itoa(9_000_000 + i),
			dom.Value(zipf.Sample(src)),
		})
	}
	detOpts := opts
	detOpts.BandwidthOverride = bw
	rep, err := Detect(r, len(wm), detOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MatchFraction(wm) < 0.9 {
		t.Fatalf("30%% data addition degraded match to %v", rep.MatchFraction(wm))
	}
}

func TestEmbedErrors(t *testing.T) {
	r, dom := testData(t, 1000)
	wm := ecc.MustParseBits("1010")

	cases := []struct {
		name   string
		mutate func(o *Options)
		wm     ecc.Bits
	}{
		{"empty k1", func(o *Options) { o.K1 = nil }, wm},
		{"empty k2", func(o *Options) { o.K2 = nil }, wm},
		{"same keys", func(o *Options) { o.K2 = o.K1 }, wm},
		{"zero e", func(o *Options) { o.E = 0 }, wm},
		{"no attr", func(o *Options) { o.Attr = "" }, wm},
		{"bad attr", func(o *Options) { o.Attr = "ghost" }, wm},
		{"key==attr", func(o *Options) { o.KeyAttr = "Item_Nbr" }, wm},
		{"bad key attr", func(o *Options) { o.KeyAttr = "ghost" }, wm},
		{"empty wm", func(o *Options) {}, ecc.Bits{}},
	}
	for _, c := range cases {
		opts := testOptions(dom)
		c.mutate(&opts)
		if _, err := Embed(r.Clone(), c.wm, opts); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestEmbedInsufficientBandwidth(t *testing.T) {
	r, dom := testData(t, 300)
	opts := testOptions(dom)
	opts.E = 100 // bandwidth 3 < 4 wm bits
	_, err := Embed(r, ecc.MustParseBits("1010"), opts)
	if !errors.Is(err, ErrInsufficientBandwidth) {
		t.Fatalf("error %v, want ErrInsufficientBandwidth", err)
	}
}

func TestEmbedTinyDomain(t *testing.T) {
	s := relation.MustSchema([]relation.Attribute{
		{Name: "k", Type: relation.TypeInt},
		{Name: "a", Type: relation.TypeString, Categorical: true},
	}, "k")
	r := relation.New(s)
	for i := 0; i < 500; i++ {
		r.MustAppend(relation.Tuple{strconv.Itoa(i), "only"})
	}
	opts := Options{
		Attr: "a", K1: keyhash.NewKey("a"), K2: keyhash.NewKey("b"), E: 10,
	}
	_, err := Embed(r, ecc.MustParseBits("101"), opts)
	if !errors.Is(err, ErrDomainTooSmall) {
		t.Fatalf("error %v, want ErrDomainTooSmall", err)
	}
}

func TestDetectErrors(t *testing.T) {
	r, dom := testData(t, 1000)
	opts := testOptions(dom)
	if _, err := Detect(r, 0, opts); err == nil {
		t.Error("zero wmLen accepted")
	}
	opts2 := opts
	opts2.E = 500 // bandwidth 2
	if _, err := Detect(r, 10, opts2); !errors.Is(err, ErrInsufficientBandwidth) {
		t.Errorf("bandwidth error = %v", err)
	}
}

func TestEmbedWithQualityBudget(t *testing.T) {
	r, dom := testData(t, 6000)
	opts := testOptions(dom)
	// Budget of 10 alterations: embedding must stop altering after 10 and
	// count the rest as quality-skipped.
	opts.Assessor = quality.NewAssessor(quality.MaxAlterationFraction(1, 10))
	wm := ecc.MustParseBits("1010")
	st, err := Embed(r, wm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Altered != 10 {
		t.Fatalf("altered %d, want exactly 10", st.Altered)
	}
	if st.SkippedQuality == 0 {
		t.Fatal("no quality skips recorded")
	}
}

func TestEmbedQualityRollbackRestoresData(t *testing.T) {
	r, dom := testData(t, 3000)
	orig := r.Clone()
	opts := testOptions(dom)
	assessor := quality.NewAssessor()
	opts.Assessor = assessor
	wm := ecc.MustParseBits("110011")
	if _, err := Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}
	if r.Equal(orig) {
		t.Fatal("embedding changed nothing")
	}
	if err := assessor.UndoAll(r); err != nil {
		t.Fatal(err)
	}
	if !r.Equal(orig) {
		t.Fatal("rollback log failed to restore the original relation")
	}
}

func TestEmbedSkipRowLedger(t *testing.T) {
	r, dom := testData(t, 4000)
	opts := testOptions(dom)
	skip := map[int]bool{}
	var altered []int
	opts.OnAlter = func(row int) { altered = append(altered, row) }
	wm := ecc.MustParseBits("1100")
	if _, err := Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}
	for _, row := range altered {
		skip[row] = true
	}
	// Re-embed with a different watermark, skipping previously altered
	// rows: none of them may change again.
	snapshot := r.Clone()
	opts2 := opts
	opts2.K1 = keyhash.NewKey("second-k1")
	opts2.K2 = keyhash.NewKey("second-k2")
	opts2.SkipRow = func(row int) bool { return skip[row] }
	opts2.OnAlter = nil
	st, err := Embed(r, ecc.MustParseBits("0011"), opts2)
	if err != nil {
		t.Fatal(err)
	}
	for row := range skip {
		v1, _ := snapshot.Value(row, "Item_Nbr")
		v2, _ := r.Value(row, "Item_Nbr")
		if v1 != v2 {
			t.Fatalf("ledgered row %d was re-altered", row)
		}
	}
	if st.SkippedLedger == 0 {
		// Only fails if no fit tuple of pass 2 was in the ledger — with
		// N=4000, e=30 the overlap expectation is ~4; allow but note.
		t.Logf("note: no ledger overlap occurred in this configuration")
	}
}

func TestVoteAggregationString(t *testing.T) {
	if MajorityVote.String() != "majority" || LastWriteWins.String() != "last-write" {
		t.Fatal("aggregation names wrong")
	}
}

func TestDetectLastWriteWins(t *testing.T) {
	// The paper-literal aggregation still round-trips cleanly with no
	// attack (all votes for a position agree by construction).
	r, dom := testData(t, 6000)
	opts := testOptions(dom)
	wm := ecc.MustParseBits("1011001110")
	if _, err := Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}
	opts.Aggregation = LastWriteWins
	rep, err := Detect(r, len(wm), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatalf("last-write aggregation: %s vs %s", wm, rep.WM)
	}
}

func TestEmbedDeterministic(t *testing.T) {
	r1, dom := testData(t, 3000)
	r2 := r1.Clone()
	opts := testOptions(dom)
	wm := ecc.MustParseBits("10110")
	if _, err := Embed(r1, wm, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Embed(r2, wm, opts); err != nil {
		t.Fatal(err)
	}
	if !r1.Equal(r2) {
		t.Fatal("embedding is not deterministic")
	}
}

func TestEmbedIdempotent(t *testing.T) {
	// Re-embedding the same watermark with the same keys must be a no-op:
	// every fit tuple already carries the right parity.
	r, dom := testData(t, 3000)
	opts := testOptions(dom)
	wm := ecc.MustParseBits("10110")
	if _, err := Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}
	st, err := Embed(r, wm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Altered != 0 {
		t.Fatalf("second embedding altered %d tuples, want 0", st.Altered)
	}
	if st.Unchanged != st.Fit {
		t.Fatalf("unchanged %d != fit %d", st.Unchanged, st.Fit)
	}
}
