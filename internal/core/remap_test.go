package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/attacks"
	"repro/internal/datagen"
	"repro/internal/ecc"
	"repro/internal/freq"
	"repro/internal/keyhash"
	"repro/internal/pipeline"
	"repro/internal/relation"
	"repro/internal/stats"
)

// verifyByRescan is the remap retry as Verify ran it before the fit-row
// re-vote, kept as the oracle the differential tests hold Verify to:
// detect, and when the remap trigger fires, clone the suspect, rewrite
// every row through the recovered inverse mapping, detect the clone in
// full, and score the frequency channel on whichever relation the
// verdict came from.
func verifyByRescan(ctx context.Context, rec *Record, suspect *relation.Relation, o VerifyOptions) (Report, error) {
	var rep Report
	rep.FrequencyMatch = -1
	p, err := prepared(rec, o.Cache, o.HashKernel)
	if err != nil {
		return rep, err
	}
	want := p.want
	cfg := pipeline.Config{Workers: workerCount(o.Workers), BlockRows: o.BlockSize}
	working := suspect
	det, err := pipeline.Detect(ctx, working, len(want), p.opts, cfg)
	if err != nil {
		return rep, err
	}
	if det.Fit > 0 && det.UnknownValues > det.Fit/2 && len(rec.Profile) > 0 {
		inverse, rerr := freq.RecoverMapping(suspect, rec.Attribute, freq.Profile(rec.Profile))
		if rerr == nil {
			working = suspect.Clone()
			if _, aerr := freq.ApplyMapping(working, rec.Attribute, inverse); aerr == nil {
				if det2, derr := pipeline.Detect(ctx, working, len(want), p.opts, cfg); derr == nil {
					det = det2
					rep.RemapRecovered = true
				}
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	rep.Primary = det
	rep.Detected = det.WM.String()
	rep.Match = det.MatchFraction(want)
	if rec.HasFrequencyChannel {
		fp := freq.DefaultParams(Spec{Secret: rec.Secret}.freqKey())
		if frep, ferr := freq.Detect(working, rec.Attribute, len(want), fp); ferr == nil {
			rep.FrequencyMatch = 1 - ecc.AlterationRate(want, frep.WM)
		}
	}
	return rep, nil
}

// remapData is a skewed catalog whose frequency ranks stay apart, so
// remap recovery by rank mostly succeeds and the retry decides verdicts.
func remapData(t testing.TB, n int, seed string) (*relation.Relation, *relation.Domain) {
	t.Helper()
	r, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: n, CatalogSize: 60, ZipfS: 1.3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, dom
}

// partialRemap renames only the top labels of attr, enough of them to
// cover most tuples, and leaves the rest in place.
func partialRemap(t *testing.T, r *relation.Relation, attr string) *relation.Relation {
	t.Helper()
	hist, err := relation.HistogramOf(r, attr)
	if err != nil {
		t.Fatal(err)
	}
	labels := hist.Labels()
	sort.SliceStable(labels, func(i, j int) bool { return hist.Count(labels[i]) > hist.Count(labels[j]) })
	m := make(map[string]string)
	for _, l := range labels[:len(labels)/3] {
		m[l] = "P_" + l
	}
	out := r.Clone()
	if _, err := freq.ApplyMapping(out, attr, m); err != nil {
		t.Fatal(err)
	}
	return out
}

// dropRareLabels removes every row carrying one of the rarest labels, so
// the recovered mapping covers fewer labels than the certificate's
// profile.
func dropRareLabels(t *testing.T, r *relation.Relation, attr string) *relation.Relation {
	t.Helper()
	hist, err := relation.HistogramOf(r, attr)
	if err != nil {
		t.Fatal(err)
	}
	labels := hist.Labels()
	sort.SliceStable(labels, func(i, j int) bool { return hist.Count(labels[i]) < hist.Count(labels[j]) })
	rare := make(map[string]bool)
	for _, l := range labels[:len(labels)/4] {
		rare[l] = true
	}
	col, _ := r.Schema().Index(attr)
	var keep []int
	for i := 0; i < r.Len(); i++ {
		if !rare[r.Tuple(i)[col]] {
			keep = append(keep, i)
		}
	}
	out, err := r.SelectRows(keep)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVerifyRemapRetryMatchesRescan is the differential suite of the
// fit-row retry: over seeds, subset keeps, suspects that are remapped,
// partly remapped, remapped after losing their rarest labels, or not
// remapped at all, and every worker count and block size — including
// worker counts that cut the suspect into several chunks, so fit rows
// straddle chunk boundaries — VerifyWith's full Report, Primary included,
// equals the clone-and-rescan oracle's.
func TestVerifyRemapRetryMatchesRescan(t *testing.T) {
	seeds := []int{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	recovered := make(map[string]int)
	for _, seed := range seeds {
		clean, dom := remapData(t, 8000, fmt.Sprintf("remap-diff-%d", seed))
		marked := clean.Clone()
		rec, _, err := Watermark(marked, Spec{
			Secret: fmt.Sprintf("remap-diff-%d", seed), Attribute: "Item_Nbr", WM: "1011001110110010",
			E: 16, Domain: dom, WithFrequencyChannel: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, keep := range []float64{1, 0.9, 0.5} {
			src := stats.NewSource(fmt.Sprintf("remap-diff-attack-%d-%v", seed, keep))
			subset, err := attacks.HorizontalSubset(marked, keep, src)
			if err != nil {
				t.Fatal(err)
			}
			remapped, _, err := attacks.BijectiveRemap(subset, "Item_Nbr", src)
			if err != nil {
				t.Fatal(err)
			}
			dropped, _, err := attacks.BijectiveRemap(dropRareLabels(t, subset, "Item_Nbr"), "Item_Nbr", src)
			if err != nil {
				t.Fatal(err)
			}
			suspects := map[string]*relation.Relation{
				"remapped":      remapped,
				"plain":         subset,
				"partial-remap": partialRemap(t, subset, "Item_Nbr"),
				"rare-dropped":  dropped,
			}
			for name, suspect := range suspects {
				for _, workers := range []int{1, 2, 4} {
					for _, block := range []int{1, 7, 512} {
						o := VerifyOptions{Workers: workers, BlockSize: block}
						want, err := verifyByRescan(context.Background(), rec, suspect, o)
						if err != nil {
							t.Fatal(err)
						}
						got, err := rec.VerifyWith(suspect, o)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d keep %v %s workers %d block %d:\nVerify %+v\nrescan %+v",
								seed, keep, name, workers, block, got, want)
						}
						if got.RemapRecovered {
							recovered[name]++
						}
					}
				}
			}
		}
	}
	t.Logf("retries by suspect kind: %v", recovered)
	for _, name := range []string{"remapped", "partial-remap", "rare-dropped"} {
		if recovered[name] == 0 {
			t.Fatalf("no %s suspect triggered the retry: the differential is vacuous", name)
		}
	}
	if recovered["plain"] != 0 {
		t.Fatal("an un-remapped suspect triggered the retry")
	}
}

// TestVerifyRemapHashesKeysOnce counts keyed hashes: a verify whose
// retry fires hashes every suspect key once with k1 in the full pass,
// then each fit row's key once more with k1 in the retry, and every
// voting row once with k2 in each pass — where a rescan would hash all
// N keys with k1 twice.
func TestVerifyRemapHashesKeysOnce(t *testing.T) {
	clean, dom := remapData(t, 20000, "remap-hash-count")
	rec, _, err := Watermark(clean, Spec{
		Secret: "hash-count", Attribute: "Item_Nbr", WM: "10110011", E: 25, Domain: dom,
	})
	if err != nil {
		t.Fatal(err)
	}
	suspect, _, err := attacks.BijectiveRemap(clean, "Item_Nbr", stats.NewSource("remap-hash-count"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := prepared(rec, nil, keyhash.KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	first, err := pipeline.Detect(context.Background(), suspect, len(p.want), p.opts, pipeline.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hashed := func() uint64 {
		var n uint64
		for _, c := range keyhash.KernelStats() {
			n += c.Values
		}
		return n
	}
	for _, workers := range []int{1, 2} {
		before := hashed()
		rep, err := rec.VerifyWith(suspect, VerifyOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := hashed() - before
		if !rep.RemapRecovered {
			t.Fatal("remap retry did not fire")
		}
		n := uint64(suspect.Len())
		fit := uint64(rep.Primary.Fit)
		voted1 := uint64(first.Fit - first.UnknownValues)
		voted2 := uint64(rep.Primary.Fit - rep.Primary.UnknownValues)
		if want := n + voted1 + fit + voted2; got != want {
			t.Fatalf("workers %d: %d keyed hashes, want %d = N %d + pass-1 votes %d + fit rows %d + retry votes %d",
				workers, got, want, n, voted1, fit, voted2)
		}
	}
}

// TestVerifyRemapRetryCancelled: a context cancelled while the retry
// runs — after its first block — fails Verify with ctx.Err() rather
// than passing the first pass's report off as a verdict.
func TestVerifyRemapRetryCancelled(t *testing.T) {
	clean, dom := remapData(t, 12000, "remap-cancel")
	rec, _, err := Watermark(clean, Spec{
		Secret: "remap-cancel", Attribute: "Item_Nbr", WM: "10110011", E: 20, Domain: dom,
	})
	if err != nil {
		t.Fatal(err)
	}
	suspect, _, err := attacks.BijectiveRemap(clean, "Item_Nbr", stats.NewSource("remap-cancel"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		ctx := &afterRowsCtx{Context: context.Background(), rows: uint64(suspect.Len()) + 1}
		ctx.base, _ = pipeline.Stats()
		if _, err := rec.VerifyContext(ctx, suspect, VerifyOptions{Workers: workers, BlockSize: 64}); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		if !ctx.fired {
			t.Fatalf("workers %d: the context never reported cancellation", workers)
		}
	}
}

// afterRowsCtx reports itself cancelled once the process-wide scan
// counter has moved rows tuples past base. One row more than the
// suspect holds is reached only by the retry's first block, so the
// full pass completes and the retry is cut at its second block.
type afterRowsCtx struct {
	context.Context
	base, rows uint64
	fired      bool
}

func (c *afterRowsCtx) Err() error {
	if tuples, _ := pipeline.Stats(); tuples-c.base >= c.rows {
		c.fired = true
		return context.Canceled
	}
	return nil
}

// TestVerifyRemapPrimaryKeyAttribute: the verified attribute is the
// suspect's primary key (a pairwise certificate keyed on another
// column), and rewriting it in place row by row passes through states
// where two rows hold one key: the last row keeps an original code that
// the recovered mapping also assigns to row 1. A relation holds
// repeated keys, so the rescan oracle's rewrite succeeds, and it and
// the fit-row retry both report exactly a detection over the suspect
// with the whole mapping applied at once.
func TestVerifyRemapPrimaryKeyAttribute(t *testing.T) {
	const n, e = 2000, 4
	schema := relation.MustSchema([]relation.Attribute{
		{Name: "Code", Type: relation.TypeString},
		{Name: "Item", Type: relation.TypeString},
	}, "Code")
	origin := make([]string, n)
	profile := make(map[string]float64, n)
	for i := range origin {
		origin[i] = fmt.Sprintf("K%04d", i)
		profile[origin[i]] = 1.0 / n
	}
	// The suspect's codes: two low-ranked renames, a block of renamed
	// codes, and the last row keeping an original code that the
	// recovered mapping assigns to row 1 as well.
	codes := make([]string, n)
	codes[0], codes[1], codes[n-1] = "A0", "A1", origin[1]
	for i := 2; i < n-1; i++ {
		codes[i] = "M" + strconv.Itoa(10000+i)
	}
	suspect := relation.New(schema)
	for i, c := range codes {
		suspect.MustAppend(relation.Tuple{c, "I" + strconv.Itoa(i%50)})
	}
	rec := &Record{
		Secret: "pk-attr", Attribute: "Code", KeyAttr: "Item", WM: "1011",
		E: e, Bandwidth: n / e, Domain: origin, Profile: profile,
	}

	inverse, err := freq.RecoverMapping(suspect, "Code", profile)
	if err != nil {
		t.Fatal(err)
	}
	atOnce := relation.New(schema)
	for i, c := range codes {
		atOnce.MustAppend(relation.Tuple{inverse[c], suspect.Tuple(i)[1]})
	}
	inPlace := suspect.Clone()
	if _, err := freq.ApplyMapping(inPlace, "Code", inverse); err != nil {
		t.Fatalf("in-place rewrite through a repeated key: %v", err)
	}
	if !inPlace.Equal(atOnce) {
		t.Fatal("the in-place rewrite differs from the mapping applied at once")
	}
	p, err := prepared(rec, nil, keyhash.KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pipeline.Detect(context.Background(), atOnce, len(p.want), p.opts, pipeline.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		o := VerifyOptions{Workers: workers}
		got, err := rec.VerifyWith(suspect, o)
		if err != nil {
			t.Fatal(err)
		}
		if !got.RemapRecovered || !reflect.DeepEqual(got.Primary, want) || got.FrequencyMatch != -1 {
			t.Fatalf("workers %d: Verify %+v, want a recovered retry reporting %+v", workers, got, want)
		}
		old, err := verifyByRescan(context.Background(), rec, suspect, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, old) {
			t.Fatalf("workers %d:\nVerify %+v\nrescan %+v", workers, got, old)
		}
	}
	if suspect.Tuple(1)[0] != "A1" || suspect.Tuple(n - 1)[0] != origin[1] {
		t.Fatal("Verify modified the suspect relation")
	}
}

// watermarkByRecount is Watermark's certificate as it was built before
// the profile came from the frequency channel's kept counts: the marked
// relation recounted through freq.ProfileOf.
func watermarkByRecount(t *testing.T, rec *Record, marked *relation.Relation) []byte {
	t.Helper()
	profile, err := freq.ProfileOf(marked, rec.Attribute)
	if err != nil {
		t.Fatal(err)
	}
	old := *rec
	old.Profile = profile
	b, err := old.Save()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWatermarkProfileUnchanged: the certificate Watermark saves is
// byte-identical to one whose profile recounts the marked relation, with
// and without the frequency channel and under a quality budget.
func TestWatermarkProfileUnchanged(t *testing.T) {
	for _, spec := range []Spec{
		{WithFrequencyChannel: true},
		{WithFrequencyChannel: false},
		{WithFrequencyChannel: true, MaxAlterationFraction: 0.01},
	} {
		r, dom := remapData(t, 15000, "profile-bytes")
		spec.Secret, spec.Attribute, spec.WM, spec.E, spec.Domain = "profile-bytes", "Item_Nbr", "10110011", 30, dom
		rec, _, err := Watermark(r, spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rec.Save()
		if err != nil {
			t.Fatal(err)
		}
		if want := watermarkByRecount(t, rec, r); string(got) != string(want) {
			t.Fatalf("%+v: certificate differs from the recounted profile's", spec)
		}
	}
}

// BenchmarkVerifyRemap verifies the owner_roundtrip suspect shape: a
// 40k-row marked relation cut to a 90% subset, then bijectively
// remapped, so every op runs the full pass, remap recovery, the fit-row
// retry and the frequency channel.
func BenchmarkVerifyRemap(b *testing.B) {
	clean, dom := remapData(b, 40_000, "bench-remap")
	rec, _, err := Watermark(clean, Spec{
		Secret: "bench-remap", Attribute: "Item_Nbr", WM: "1011001110110010",
		E: 50, Domain: dom, WithFrequencyChannel: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	src := stats.NewSource("bench-remap-attack")
	subset, err := attacks.HorizontalSubset(clean, 0.9, src)
	if err != nil {
		b.Fatal(err)
	}
	suspect, _, err := attacks.BijectiveRemap(subset, "Item_Nbr", src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := rec.VerifyWith(suspect, VerifyOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.RemapRecovered {
			b.Fatal("remap retry did not fire")
		}
	}
}
