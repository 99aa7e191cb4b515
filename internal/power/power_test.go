package power

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/datagen"
	"repro/internal/ecc"
	"repro/internal/freq"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/relation"
	"repro/internal/stats"
)

func powerData(t *testing.T, n int) (*relation.Relation, *relation.Domain) {
	t.Helper()
	r, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: n, CatalogSize: 400, ZipfS: 1.0, Seed: "power-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, dom
}

func catScheme(dom *relation.Domain) *CategoricalScheme {
	return &CategoricalScheme{
		WM: ecc.MustParseBits("1011001110"),
		Opts: mark.Options{
			Attr:   "Item_Nbr",
			K1:     keyhash.NewKey("power-k1"),
			K2:     keyhash.NewKey("power-k2"),
			E:      50,
			Domain: dom,
		},
	}
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Levels = []float64{0.2, 0.5, 0.8}
	cfg.Passes = 2
	return cfg
}

func TestEvaluateCategoricalUnderLoss(t *testing.T) {
	r, dom := powerData(t, 12000)
	p, err := Evaluate(r, catScheme(dom), LossAttack(), "Item_Nbr", smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.CleanScore != 1 {
		t.Fatalf("clean score %v", p.CleanScore)
	}
	if p.Distortion.Fraction <= 0 || p.Distortion.Fraction > 0.05 {
		t.Fatalf("distortion %v", p.Distortion.Fraction)
	}
	if p.Distortion.FreqDrift <= 0 {
		t.Fatal("frequency drift not measured")
	}
	// At bandwidth 240 / 10 bits, loss attacks are fully absorbed.
	if p.AUC < 0.95 {
		t.Fatalf("AUC %v under loss, want ≈ 1", p.AUC)
	}
	if len(p.Curve) != 3 {
		t.Fatalf("curve has %d points", len(p.Curve))
	}
}

func TestEvaluateDetectsResilienceOrdering(t *testing.T) {
	// Under A3 alteration, the categorical scheme's survival must be
	// monotone-ish decreasing and the profile must record it.
	r, dom := powerData(t, 12000)
	p, err := Evaluate(r, catScheme(dom), AlterationAttack("Item_Nbr", dom), "Item_Nbr", smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	first, last := p.Curve[0], p.Curve[len(p.Curve)-1]
	if first.Score < last.Score-0.05 {
		t.Fatalf("alteration resilience inverted: %v -> %v", first.Score, last.Score)
	}
}

// The headline comparison the baseline package exists for: on categorical
// data, the categorical scheme embeds with zero domain damage while the
// KA numeric-LSB baseline leaves the catalog on a sparse code space.
func TestCategoricalVsKADomainDamage(t *testing.T) {
	// Sparse catalog: only even codes are valid.
	vals := make([]string, 200)
	for k := range vals {
		vals[k] = itoa(30000 + 2*k)
	}
	dom := relation.MustDomain(vals)
	r := relation.New(datagen.ItemScanSchema())
	src := stats.NewSource("sparse-power")
	for i := 0; i < 15000; i++ {
		r.MustAppend(relation.Tuple{itoa(i), vals[src.Intn(len(vals))]})
	}

	// Categorical scheme.
	cs := catScheme(dom)
	markedCat := r.Clone()
	if err := cs.Embed(markedCat); err != nil {
		t.Fatal(err)
	}
	catViol, err := baseline.DomainViolations(markedCat, "Item_Nbr", dom)
	if err != nil {
		t.Fatal(err)
	}
	if catViol != 0 {
		t.Fatalf("categorical scheme violated the domain %d times", catViol)
	}

	// KA baseline at a comparable marking rate.
	ka := &KAScheme{Opts: baseline.KAOptions{
		Attr: "Item_Nbr", Key: keyhash.NewKey("ka-power"), Gamma: 50, Xi: 2,
	}}
	markedKA := r.Clone()
	if err := ka.Embed(markedKA); err != nil {
		t.Fatal(err)
	}
	kaViol, err := baseline.DomainViolations(markedKA, "Item_Nbr", dom)
	if err != nil {
		t.Fatal(err)
	}
	if kaViol == 0 {
		t.Fatal("KA LSB marking on a sparse catalog produced no violations?")
	}
}

func TestEvaluateFrequencyScheme(t *testing.T) {
	r, _ := powerData(t, 30000)
	fs := &FrequencyScheme{
		Attr:   "Item_Nbr",
		WM:     ecc.MustParseBits("101101"),
		Params: freq.DefaultParams(keyhash.NewKey("power-freq")),
	}
	p, err := Evaluate(r, fs, LossAttack(), "Item_Nbr", smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.CleanScore < 1 {
		t.Fatalf("frequency clean score %v", p.CleanScore)
	}
	// Designed for 50% loss; must survive the 0.2 and 0.5 levels.
	if p.Curve[0].Survived < 1 || p.Curve[1].Survived < 0.5 {
		t.Fatalf("frequency survival curve %+v", p.Curve)
	}
}

func TestEvaluateConfigValidation(t *testing.T) {
	r, dom := powerData(t, 500)
	bad := []Config{
		{Levels: nil, Passes: 1, SurvivalThreshold: 0.9},
		{Levels: []float64{2}, Passes: 1, SurvivalThreshold: 0.9},
		{Levels: []float64{0.5}, Passes: 0, SurvivalThreshold: 0.9},
		{Levels: []float64{0.5}, Passes: 1, SurvivalThreshold: 0},
	}
	for i, cfg := range bad {
		if _, err := Evaluate(r, catScheme(dom), LossAttack(), "", cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestEvaluateDoesNotMutateBase(t *testing.T) {
	r, dom := powerData(t, 3000)
	orig := r.Clone()
	if _, err := Evaluate(r, catScheme(dom), LossAttack(), "", smallConfig()); err != nil {
		t.Fatal(err)
	}
	if !r.Equal(orig) {
		t.Fatal("Evaluate mutated the base relation")
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

// FrequencyScheme adapts the Section 4.2 frequency channel; only the
// power tests evaluate it.
type FrequencyScheme struct {
	Attr   string
	WM     ecc.Bits
	Params freq.Params
}

// Name implements Scheme.
func (s *FrequencyScheme) Name() string { return "categorical-frequency" }

// Embed implements Scheme.
func (s *FrequencyScheme) Embed(r *relation.Relation) error {
	_, err := freq.Embed(r, s.Attr, s.WM, s.Params)
	return err
}

// Detect implements Scheme.
func (s *FrequencyScheme) Detect(r *relation.Relation) (float64, error) {
	rep, err := freq.Detect(r, s.Attr, len(s.WM), s.Params)
	if err != nil {
		return 0, err
	}
	return 1 - ecc.AlterationRate(s.WM, rep.WM), nil
}
