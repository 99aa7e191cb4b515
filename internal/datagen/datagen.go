// Package datagen produces the synthetic datasets the experiments run on.
//
// The paper's evaluation (Section 5) watermarks the Wal-Mart Sales
// Database — the UnivClassTables.ItemScan relation on an NCR Teradata
// machine, schema:
//
//	Visit_Nbr INTEGER PRIMARY KEY,
//	Item_Nbr  INTEGER NOT NULL
//
// sampled down to at most 141 000 tuples. That data is proprietary and
// unavailable, so this package synthesises an equivalent: integer visit
// numbers as the primary key and Zipf-distributed item numbers over a
// finite product catalog. The watermarking algorithms observe only (a) the
// primary key through a keyed cryptographic hash — uniform regardless of
// the key's real-world distribution — and (b) the categorical value's index
// parity and occurrence histogram, whose essential property (non-uniform,
// heavy-tailed, as the paper itself assumes for product codes) the Zipf
// catalog reproduces. See DESIGN.md, substitution table.
//
// A second generator produces the airline-reservation relation
// (ticket, departure_city, airline) from the paper's motivating examples,
// with two categorical attributes for the multi-attribute embedding of
// Section 3.3.
package datagen

import (
	"fmt"
	"strconv"

	"repro/internal/relation"
	"repro/internal/stats"
)

// ItemScanConfig parameterises the Wal-Mart stand-in generator.
type ItemScanConfig struct {
	// N is the number of tuples. The paper's test size is 141000.
	N int
	// CatalogSize is the number of distinct Item_Nbr values (n_A).
	CatalogSize int
	// ZipfS is the popularity skew exponent; 0 = uniform, ~1 = typical
	// retail long tail.
	ZipfS float64
	// Seed makes generation reproducible.
	Seed string
}

func (c ItemScanConfig) validate() error {
	if c.N <= 0 {
		return fmt.Errorf("datagen: N must be positive, got %d", c.N)
	}
	if c.CatalogSize < 2 {
		return fmt.Errorf("datagen: catalog needs at least 2 items, got %d", c.CatalogSize)
	}
	if c.ZipfS < 0 {
		return fmt.Errorf("datagen: Zipf exponent must be non-negative, got %v", c.ZipfS)
	}
	return nil
}

// ItemScanSchema returns the paper's test schema.
func ItemScanSchema() *relation.Schema {
	return relation.MustSchema([]relation.Attribute{
		{Name: "Visit_Nbr", Type: relation.TypeInt},
		{Name: "Item_Nbr", Type: relation.TypeInt, Categorical: true},
	}, "Visit_Nbr")
}

// ItemNbr renders the catalog item at rank k as an Item_Nbr value. Item
// numbers start at 10000 so that all values share a digit width, as real
// product codes do.
func ItemNbr(k int) string { return strconv.Itoa(10000 + k) }

// ItemScan generates the synthetic ItemScan relation and the full product
// catalog domain (including items that happen not to occur in this sample —
// the detector needs the catalog, not the sample, per relation.Domain docs).
func ItemScan(cfg ItemScanConfig) (*relation.Relation, *relation.Domain, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	src := stats.NewSource("itemscan/" + cfg.Seed)
	zipf := stats.NewZipf(cfg.CatalogSize, cfg.ZipfS)

	r := relation.New(ItemScanSchema())
	// Visit numbers: a shuffled dense range with a base offset, like a
	// sequence-allocated key column sampled out of a bigger table.
	perm := src.Perm(cfg.N)
	for i := 0; i < cfg.N; i++ {
		visit := strconv.Itoa(500000 + perm[i])
		item := ItemNbr(zipf.Sample(src))
		if err := r.Append(relation.Tuple{visit, item}); err != nil {
			return nil, nil, fmt.Errorf("datagen: %w", err)
		}
	}

	catalog := make([]string, cfg.CatalogSize)
	for k := range catalog {
		catalog[k] = ItemNbr(k)
	}
	dom, err := relation.NewDomain(catalog)
	if err != nil {
		return nil, nil, err
	}
	return r, dom, nil
}

// AirlineConfig parameterises the airline-reservation generator.
type AirlineConfig struct {
	// N is the number of reservation tuples.
	N int
	// Cities is the number of distinct departure cities (default 50).
	Cities int
	// Airlines is the number of distinct carriers (default 20).
	Airlines int
	// Seed makes generation reproducible.
	Seed string
}

// AirlineSchema returns the (ticket, departure_city, airline) schema used
// by the Section 3.3 multi-attribute embedding examples.
func AirlineSchema() *relation.Schema {
	return relation.MustSchema([]relation.Attribute{
		{Name: "ticket", Type: relation.TypeInt},
		{Name: "departure_city", Type: relation.TypeString, Categorical: true},
		{Name: "airline", Type: relation.TypeString, Categorical: true},
	}, "ticket")
}

// CityName renders city k as a stable label.
func CityName(k int) string { return fmt.Sprintf("CITY_%03d", k) }

// AirlineName renders carrier k as a stable label.
func AirlineName(k int) string { return fmt.Sprintf("AIR_%02d", k) }

// Airline generates the reservation relation plus the city and airline
// catalog domains.
func Airline(cfg AirlineConfig) (*relation.Relation, *relation.Domain, *relation.Domain, error) {
	if cfg.N <= 0 {
		return nil, nil, nil, fmt.Errorf("datagen: N must be positive, got %d", cfg.N)
	}
	if cfg.Cities < 2 || cfg.Airlines < 2 {
		return nil, nil, nil, fmt.Errorf("datagen: need at least 2 cities and 2 airlines")
	}
	src := stats.NewSource("airline/" + cfg.Seed)
	cityZipf := stats.NewZipf(cfg.Cities, 0.8)  // hub-dominated traffic
	airZipf := stats.NewZipf(cfg.Airlines, 0.6) // major-carrier skew

	r := relation.New(AirlineSchema())
	for i := 0; i < cfg.N; i++ {
		t := relation.Tuple{
			strconv.Itoa(9000000 + i),
			CityName(cityZipf.Sample(src)),
			AirlineName(airZipf.Sample(src)),
		}
		if err := r.Append(t); err != nil {
			return nil, nil, nil, fmt.Errorf("datagen: %w", err)
		}
	}

	cities := make([]string, cfg.Cities)
	for k := range cities {
		cities[k] = CityName(k)
	}
	airs := make([]string, cfg.Airlines)
	for k := range airs {
		airs[k] = AirlineName(k)
	}
	cityDom, err := relation.NewDomain(cities)
	if err != nil {
		return nil, nil, nil, err
	}
	airDom, err := relation.NewDomain(airs)
	if err != nil {
		return nil, nil, nil, err
	}
	return r, cityDom, airDom, nil
}
