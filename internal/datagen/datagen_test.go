package datagen

import (
	"testing"

	"repro/internal/relation"
)

func TestItemScanShape(t *testing.T) {
	cfg := ItemScanConfig{N: 5000, CatalogSize: 100, ZipfS: 1.0, Seed: "t"}
	r, dom, err := ItemScan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != cfg.N {
		t.Fatalf("N = %d, want %d", r.Len(), cfg.N)
	}
	if dom.Size() != cfg.CatalogSize {
		t.Fatalf("catalog %d, want %d", dom.Size(), cfg.CatalogSize)
	}
	if r.Schema().KeyName() != "Visit_Nbr" {
		t.Fatalf("key %q", r.Schema().KeyName())
	}
	// Every item value must be in the catalog domain.
	for i := 0; i < r.Len(); i++ {
		v, _ := r.Value(i, "Item_Nbr")
		if !dom.Contains(v) {
			t.Fatalf("row %d item %q outside catalog", i, v)
		}
	}
}

func TestItemScanDeterministic(t *testing.T) {
	cfg := ItemScanConfig{N: 1000, CatalogSize: 50, ZipfS: 1.0, Seed: "same"}
	a, _, err := ItemScan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ItemScan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("same seed produced different data")
	}
	cfg.Seed = "different"
	c, _, err := ItemScan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Fatal("different seed produced identical data")
	}
}

func TestItemScanKeysUnique(t *testing.T) {
	r, _, err := ItemScan(ItemScanConfig{N: 3000, CatalogSize: 30, ZipfS: 1, Seed: "u"})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, r.Len())
	for i := 0; i < r.Len(); i++ {
		k := r.Key(i)
		if seen[k] {
			t.Fatalf("duplicate visit number %s", k)
		}
		seen[k] = true
	}
}

func TestItemScanZipfSkew(t *testing.T) {
	r, _, err := ItemScan(ItemScanConfig{N: 20000, CatalogSize: 100, ZipfS: 1.0, Seed: "z"})
	if err != nil {
		t.Fatal(err)
	}
	h, err := relation.HistogramOf(r, "Item_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	// Rank-0 item should be far more frequent than a tail item — the
	// non-uniformity the frequency channel depends on (Section 4.2).
	top := h.Freq(ItemNbr(0))
	tail := h.Freq(ItemNbr(99))
	if top < 5*tail {
		t.Fatalf("no Zipf skew: top %v vs tail %v", top, tail)
	}
}

func TestItemScanUniformOption(t *testing.T) {
	r, _, err := ItemScan(ItemScanConfig{N: 20000, CatalogSize: 10, ZipfS: 0, Seed: "flat"})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := relation.HistogramOf(r, "Item_Nbr")
	for k := 0; k < 10; k++ {
		f := h.Freq(ItemNbr(k))
		if f < 0.07 || f > 0.13 {
			t.Fatalf("uniform item %d freq %v", k, f)
		}
	}
}

func TestItemScanConfigValidation(t *testing.T) {
	bad := []ItemScanConfig{
		{N: 0, CatalogSize: 10, ZipfS: 1},
		{N: 10, CatalogSize: 1, ZipfS: 1},
		{N: 10, CatalogSize: 10, ZipfS: -1},
	}
	for i, cfg := range bad {
		if _, _, err := ItemScan(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestAirlineShape(t *testing.T) {
	cfg := AirlineConfig{N: 2000, Cities: 30, Airlines: 8, Seed: "a"}
	r, cities, airs, err := Airline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != cfg.N || cities.Size() != 30 || airs.Size() != 8 {
		t.Fatalf("shape %d/%d/%d", r.Len(), cities.Size(), airs.Size())
	}
	cats := r.Schema().CategoricalAttrs()
	if len(cats) != 2 {
		t.Fatalf("categorical attrs %v", cats)
	}
	for i := 0; i < r.Len(); i++ {
		c, _ := r.Value(i, "departure_city")
		a, _ := r.Value(i, "airline")
		if !cities.Contains(c) || !airs.Contains(a) {
			t.Fatalf("row %d values outside catalogs: %q %q", i, c, a)
		}
	}
}

func TestAirlineDeterministic(t *testing.T) {
	cfg := AirlineConfig{N: 500, Cities: 50, Airlines: 20, Seed: "airline"}
	a, _, _, err := Airline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := Airline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("airline generation not deterministic")
	}
}

func TestAirlineValidation(t *testing.T) {
	if _, _, _, err := Airline(AirlineConfig{N: 0, Cities: 5, Airlines: 5}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, _, _, err := Airline(AirlineConfig{N: 10, Cities: 1, Airlines: 5}); err == nil {
		t.Error("1 city accepted")
	}
}
